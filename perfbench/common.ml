(* Shared plumbing of the benchmark: clocks, the host-speed probe,
   rounds and set-ups, spans, host facts, order statistics and the
   result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Working files live under the build directory of the checkout, which
   version control ignores. *)
let work_root = ".bench_build/perfbench"

let rec mkdir_p d =
  if d <> "" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  let d = Filename.concat work_root name in
  rm_rf d;
  mkdir_p d;
  d

(* ---- order statistics --------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- deterministic shuffles from the workload seed ---------------- *)

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Sim.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- host facts ---------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let field_of path key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines path)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  match field_of (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.
      | [] -> nan)
  | None -> nan

let cpu_model () =
  Option.value ~default:"unknown" (field_of "/proc/cpuinfo" "model name")

(* A fixed integer loop (splitmix steps), best of three: the host-speed
   part of the fingerprint. *)
let calibration_ms () =
  let once () =
    let x = ref 0x9e3779b9 in
    let t0 = now () in
    for _ = 1 to 20_000_000 do
      let z = !x + 0x1e3779b97f4a7c15 in
      let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
      x := z lxor (z lsr 27)
    done;
    let dt = now () -. t0 in
    if !x = 42 then print_string "";
    dt *. 1000.
  in
  List.fold_left min infinity [ once (); once (); once () ]

let print_fingerprint () =
  Printf.printf
    "fingerprint {\"cpu\": %S, \"nproc\": %d, \"calibration_ms\": %.3f}\n%!"
    (cpu_model ())
    (Domain.recommended_domain_count ())
    (calibration_ms ())

(* ---- spans ---------------------------------------------------------- *)

(* A span covers one call into a layer.  Spans of one operation share
   [op]; [parent] is the span that caused it (-1 at the top).  They are
   kept in memory and written out once, at the end of the run. *)
type span = {
  id : int;
  op : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 0
let next_op = ref 0
let stack : (int * int) list ref = ref [] (* (span id, op) *)

let new_op () =
  let o = !next_op in
  incr next_op;
  o

(* Record a span whose interval the caller measured itself (used where
   spans of several operations interleave, as on two connections).  Its
   parent defaults to the innermost open [with_span]. *)
let record ?parent ~op name t0 t1 =
  if !tracing then begin
    let parent =
      match (parent, !stack) with
      | Some p, _ -> p
      | None, (p, _) :: _ -> p
      | None, [] -> -1
    in
    let id = !next_span in
    incr next_span;
    spans := { id; op; parent; name; t0; t1 } :: !spans;
    id
  end
  else -1

(* Nested synchronous span: inherits the operation of its parent, or
   starts a new one at the top. *)
let with_span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent, op =
      match !stack with (p, o) :: _ -> (p, o) | [] -> (-1, new_op ())
    in
    stack := (id, op) :: !stack;
    let t0 = now () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; op; parent; name; t0; t1 = now () } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let dur s = s.t1 -. s.t0

(* Total duration of spans whose name satisfies [p]. *)
let total_where p =
  List.fold_left (fun acc s -> if p s.name then acc +. dur s else acc) 0. !spans

let total name = total_where (String.equal name)

(* Self time: a span's duration minus the part of its interval that
   its children cover (children of one parent may overlap each other,
   so their union is taken). *)
let self_times () =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    !spans;
  List.map
    (fun s ->
      let ivs =
        List.sort compare
          (List.map
             (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
             (Hashtbl.find_all kids s.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0., neg_infinity) ivs
      in
      (s, dur s -. covered))
    !spans

let write_spans ~path ~overhead_s =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, sf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur s, sf +. self))
    (self_times ());
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"tracing_overhead_s\": %.6f,\n\"layers\": [\n" overhead_s;
  let names =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])
  in
  List.iteri
    (fun i (name, (n, tot, sf)) ->
      Printf.fprintf oc
        "%s  {\"name\": %S, \"count\": %d, \"total_s\": %.6f, \"self_s\": %.6f}\n"
        (if i = 0 then "" else ",")
        name n tot sf)
    names;
  output_string oc "],\n\"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"op\": %d, \"parent\": %d, \"name\": %S, \
         \"start_us\": %.1f, \"dur_us\": %.1f}\n"
        (if i = 0 then "" else ",")
        s.id s.op s.parent s.name
        ((s.t0 -. base) *. 1e6)
        (dur s *. 1e6))
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc;
  List.iter
    (fun (name, (n, tot, sf)) ->
      Printf.eprintf "  span %-28s n=%-6d total %9.4f s  self %9.4f s\n" name n
        tot sf)
    names

(* ---- host-speed probe ---------------------------------------------- *)

(* The host's other tenants slow the simulator's memory-heavy code by
   up to 1.8x, in phases from seconds to tens of minutes, while a plain
   integer loop slows by a tenth of that; CPU time slows with wall
   time.  This probe, a fixed loop of the benchmark's own code (random
   read-modify-writes over a 2 MB array: past the private caches, in
   the shared last-level cache), slows with the simulator: over 10 s
   windows of a 5-minute recording the medians of the two correlated
   0.92, and their ratio spread half as much as the simulator's time.
   The probe is timed after every set-up, every round and every timed
   operation, and [setup_s] and [host_s] are reported scaled to a probe
   median of [probe_ref_ms].  A change to the program leaves the probe
   as it is, so it moves the scaled times as it moves the raw ones. *)
let probe_ref_ms = 5.0
let probe_ms = ref []

let probe_once (buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let n = Bigarray.Array1.dim buf in
  let t0 = now () in
  let x = ref 1 and s = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (n - 1) in
    s := !s + Bigarray.Array1.unsafe_get buf i;
    Bigarray.Array1.unsafe_set buf i !s
  done;
  (now () -. t0) *. 1e3

(* The probe runs in a child process, forked before any work starts, so
   that its buffer adds nothing to this process's resident set or to
   the heap its collector scans.  Each byte written to the child asks
   for one probe; it answers with the time in 8 bytes.  At exit the
   request pipe is closed and the child waited for. *)
let prober =
  lazy
    (let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
     flush_all ();
     match Unix.fork () with
     | 0 ->
         Unix.close req_w;
         Unix.close rep_r;
         let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (256 * 1024) in
         Bigarray.Array1.fill buf 0;
         let b = Bytes.create 8 in
         let rec loop () =
           if Unix.read req_r b 0 1 = 1 then begin
             Bytes.set_int64_le b 0 (Int64.bits_of_float (probe_once buf));
             ignore (Unix.write rep_w b 0 8);
             loop ()
           end
         in
         (try loop () with _ -> ());
         Unix._exit 0
     | pid ->
         Unix.close req_r;
         Unix.close rep_w;
         at_exit (fun () ->
             Unix.close req_w;
             ignore (Unix.waitpid [] pid));
         (req_w, rep_r))

let probe () =
  let req, rep = Lazy.force prober in
  let b = Bytes.create 8 in
  ignore (Unix.write req b 0 1);
  let rec fill k =
    if k < 8 then
      match Unix.read rep b k (8 - k) with
      | 0 -> failwith "probe: the probe process has gone"
      | n -> fill (k + n)
  in
  fill 0;
  probe_ms := Int64.float_of_bits (Bytes.get_int64_le b 0) :: !probe_ms

(* A time of this run's timed part at the reference probe speed. *)
let scaled t = t *. probe_ref_ms /. median !probe_ms

(* ---- per-operation times ------------------------------------------- *)

(* A round of [report], [replay] or [mutators] is a fixed list of
   operations (cells, renders, generations, replays, server runs).
   Each is timed on its own inside [rounds] (set-up and traced rounds
   are not), and [host_s] is the sum over the operations of each one's
   median wall time across the run's rounds, scaled. *)
let op_times : (string, float list) Hashtbl.t = Hashtbl.create 64
let timing_ops = ref false

let timed_op key f =
  if not !timing_ops then f ()
  else begin
    let r, dt = time f in
    Hashtbl.replace op_times key
      (dt :: Option.value ~default:[] (Hashtbl.find_opt op_times key));
    probe ();
    r
  end

let ops_host_s () =
  let raw = Hashtbl.fold (fun _ dts acc -> acc +. median dts) op_times 0. in
  Printf.eprintf "  ops: raw %.4f s, probe median %.4f ms over %d, scaled %.4f s\n%!" raw
    (median !probe_ms) (List.length !probe_ms) (scaled raw);
  scaled raw

(* ---- set-up --------------------------------------------------------- *)

(* Set-up is timed [k] times: once before the timed part, which also
   warms the process up, and then between rounds, spread over the run
   and topped up after the last one.  Five set-ups in a row would all
   fall in the host phase of the run's first seconds; spread out, their
   median covers the same phases as the rounds' and is scaled by the
   same probes. *)
let setup_times = ref []

let timed_setup f =
  let r, dt = time f in
  probe ();
  setup_times := dt :: !setup_times;
  Printf.eprintf "  set-up %d: %.4f s\n%!" (List.length !setup_times) dt;
  r

let setup_s () = scaled (median !setup_times)

(* ---- rounds --------------------------------------------------------- *)

(* Run whole rounds of the same operations for about [seconds]: always
   one, then another unless it would overrun by more than half of the
   slowest round so far, and at least [min_rounds].  [after] runs
   untimed after each round.  [setup = (k, f)] runs [f], which calls
   [timed_setup], between rounds until set-up has been timed [k] times
   in all. *)
let rounds ?(after = ignore) ?(min_rounds = 1) ?setup ~seconds f =
  let t0 = now () in
  let walls = ref [] in
  let setup_due () =
    match setup with
    | Some (k, _) ->
        let n = List.length !setup_times in
        n < k && now () -. t0 >= float_of_int n *. seconds /. float_of_int k
    | None -> false
  in
  let set_up () = Option.iter (fun (_, s) -> s ()) setup in
  let rec go () =
    let c0 = Unix.times () in
    timing_ops := true;
    let _, dt = time f in
    timing_ops := false;
    let c1 = Unix.times () in
    probe ();
    Printf.eprintf "  round %d: wall %.4f s, cpu %.4f s\n%!" (List.length !walls + 1) dt
      (c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime);
    walls := dt :: !walls;
    after ();
    if setup_due () then set_up ();
    let elapsed = now () -. t0 in
    let slowest = List.fold_left Float.max 0. !walls in
    if List.length !walls < min_rounds || elapsed +. (slowest /. 2.) < seconds then go ()
  in
  go ();
  Option.iter
    (fun (k, _) ->
      while List.length !setup_times < k do
        set_up ()
      done)
    setup;
  List.rev !walls

(* ---- checks and the result line ------------------------------------ *)

let failures : string list ref = ref []

(* Operations that returned an error instead of a result. *)
let op_failures = ref 0

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let mi name unit_ v = m name unit_ (float_of_int v)

(* What a workload's traced pass gives: the operations it attempted,
   its per-layer metrics and its tracing overhead in seconds. *)
type layers = { attempted : int; metrics : metric list; overhead : float }

(* The simulated end-to-end figures of a list of results. *)
let sim_metrics (rs : Workloads.Results.t list) =
  let s f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  [
    mi "sim_cycles" "cycles" (s (fun r -> r.Workloads.Results.cycles));
    m "sim_os_kb" "KB" (float_of_int (s (fun r -> r.Workloads.Results.os_bytes)) /. 1024.);
  ]

let print_result ~attempted ~failed metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        failwith (Printf.sprintf "metric %s was not measured" x.name))
    metrics;
  List.iter (fun f -> Printf.eprintf "CHECK FAILED: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i x ->
      let v =
        if Float.is_integer x.value && Float.abs x.value < 1e15 then
          Printf.sprintf "%.0f" x.value
        else Printf.sprintf "%.17g" x.value
      in
      Printf.bprintf buf "%s%S: {\"value\": %s, \"unit\": %S}"
        (if i = 0 then "" else ", ")
        x.name v x.unit_)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)
