(* serve: a closed loop against a [repro serve] daemon with one worker
   domain.  This process keeps two connections open; each sends its
   next request only when the previous reply has arrived.  One
   connection carries the warm requests: reads of cells cached during
   set-up.  The other carries a fixed share of cold requests with fresh
   seeds, each of which computes a cell, appends to the daemon's
   fsync'd journal and writes its cache, while the warm reads go on.
   Keeping the cold requests on one connection means they never queue
   behind each other at the single worker, so each latency is one
   cell's, not a varying mix of one and two. *)

open Common
module P = Serve.Protocol
module W = Workloads.Workload
module Api = Workloads.Api

let warm_cells =
  List.concat_map
    (fun (spec : W.spec) -> List.map (fun mode -> (spec, mode)) (W.modes_for spec))
    [ (W.find "cfrac"); (W.find "mudlle") ]

let cold_cell = (W.find "cfrac", Api.Direct Api.Bsd)
(* The warm connection's 3,000 requests outlast the cold connection's
   four cells, so a round's wall time is set by the warm path. *)
let warm_per_round = 3000
let cold_per_round = 4

(* While serving, the daemon's resident set grows by a varying number
   of ~2 MB steps, so its peak after serving spreads by more than any
   bound could absorb.  The end-to-end [peak_rss_mb] is therefore the
   peak at the end of set-up (start plus twelve computed cells); the
   traced run reports the growth over this many rounds on its own. *)
let rss_rounds = 40

(* ---- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; dir : string; socket : string; metrics : string }

let live : daemon list ref = ref []

let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () = at_exit (fun () -> List.iter stop !live)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let start ~repro ~k =
  let dir = fresh_dir (Printf.sprintf "serve%d" k) in
  let socket = Filename.concat dir "d.sock" in
  let metrics = Filename.concat dir "metrics.json" in
  let log = Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| repro; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache";
       "--journal"; Filename.concat dir "journal"; "--workers"; "1";
       "--metrics-out"; metrics |]
  in
  let pid = Unix.create_process repro args Unix.stdin log log in
  Unix.close log;
  let d = { pid; dir; socket; metrics } in
  live := d :: !live;
  let deadline = now () +. 60. in
  let rec wait () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve: the daemon exited during start-up (see its log)");
        if now () > deadline then failwith "serve: the daemon did not start in 60 s";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  d

(* ---- requests ------------------------------------------------------- *)

type kind = Warm | Cold

type sent = {
  req : P.request;
  kind : kind;
  mutable t_sent : float;
  mutable t_written : float;
  mutable reply : string;
  mutable latency : float;
}

let next_id = ref 0
let next_cold_seed = ref 0

let request kind ((spec : W.spec), mode) =
  incr next_id;
  let seed =
    match kind with
    | Warm -> 0
    | Cold ->
        incr next_cold_seed;
        !next_cold_seed
  in
  {
    req = P.request ~id:!next_id ~seed ~workload:spec.W.name ~mode:(Api.mode_name mode)
        ~size:"quick" ();
    kind;
    t_sent = 0.;
    t_written = 0.;
    reply = "";
    latency = 0.;
  }

(* One round's requests for the warm and the cold connection; the seed
   draws which warm cell each warm request asks for. *)
let round_requests rng =
  let n = List.length warm_cells in
  [|
    List.init warm_per_round (fun _ -> request Warm (List.nth warm_cells (Sim.Rng.int rng n)));
    List.init cold_per_round (fun _ -> request Cold cold_cell);
  |]

let send fd s =
  s.t_sent <- now ();
  P.write_frame fd (P.encode_request s.req);
  s.t_written <- now ()

(* Closed loop: connection [c] works through [queues.(c)] with one
   request outstanding at a time. *)
let closed_loop fds queues =
  let queues = Array.copy queues in
  let outstanding = Array.make (Array.length fds) None in
  let launch c =
    match queues.(c) with
    | [] -> outstanding.(c) <- None
    | r :: rest ->
        queues.(c) <- rest;
        send fds.(c) r;
        outstanding.(c) <- Some r
  in
  Array.iteri (fun c _ -> launch c) fds;
  let busy () = Array.exists Option.is_some outstanding in
  while busy () do
    let waiting =
      List.filter_map Fun.id
        (Array.to_list (Array.mapi (fun c o -> Option.map (fun _ -> fds.(c)) o) outstanding))
    in
    let ready, _, _ = Unix.select waiting [] [] 60. in
    if ready = [] then failwith "serve: no reply within 60 s";
    List.iter
      (fun fd ->
        let c =
          let rec find i = if fds.(i) == fd then i else find (i + 1) in
          find 0
        in
        match (outstanding.(c), P.read_frame fd) with
        | Some r, Ok payload ->
            r.latency <- now () -. r.t_sent;
            r.reply <- payload;
            if !tracing then begin
              let op = new_op () in
              let id = record ~op "request" r.t_sent (r.t_sent +. r.latency) in
              ignore (record ~parent:id ~op "send" r.t_sent r.t_written);
              ignore (record ~parent:id ~op "reply" r.t_written (r.t_sent +. r.latency))
            end;
            launch c
        | Some _, Error msg -> failwith ("serve: connection lost: " ^ msg)
        | None, _ -> ())
      ready
  done

let open_connections d = Array.init 2 (fun _ -> Option.get (connect d.socket))

(* Set-up: start the daemon and warm its cache with every warm cell. *)
let set_up ~repro k =
  let d = with_span "daemon_start" (fun () -> start ~repro ~k) in
  let fds = open_connections d in
  (* Computed now, so answered cold; warm from then on. *)
  let warm = List.map (fun c -> { (request Warm c) with kind = Cold }) warm_cells in
  let half = List.length warm / 2 in
  with_span "warm_cache" (fun () ->
      closed_loop fds
        [| List.filteri (fun i _ -> i < half) warm; List.filteri (fun i _ -> i >= half) warm |]);
  Array.iter Unix.close fds;
  (d, warm)

(* ---- checks --------------------------------------------------------- *)

let expected = Hashtbl.create 16

let expected_cell workload mode =
  match Hashtbl.find_opt expected (workload, mode) with
  | Some c -> c
  | None ->
      let spec = W.find workload in
      let mode' = List.find (fun m -> Api.mode_name m = mode) (Api.all_modes) in
      let r = W.run_collect spec mode' W.Quick in
      (* Through JSON, as the daemon's cell was. *)
      let c =
        Result.get_ok
          (Results.Cell.of_string
             (Results.Cell.to_string (Results.Cell.make ~size:"quick" ~build_id:"-" r)))
      in
      Hashtbl.replace expected (workload, mode) c;
      c

(* Distinct replies are checked once each. *)
let check_replies sent =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match P.decode_response s.reply with
      | Error e -> check false "serve: undecodable reply to %d: %s" s.req.P.id e
      | Ok resp -> (
          check (P.response_id resp = s.req.P.id) "serve: reply id %d for request %d"
            (P.response_id resp) s.req.P.id;
          match resp with
          | P.Cell { warm; cell; _ } ->
              check (warm = (s.kind = Warm)) "serve: request %d (%s) answered warm=%b"
                s.req.P.id (P.key_of_request s.req) warm;
              let text = Results.Json.to_string cell in
              let key = (s.req.P.workload, s.req.P.mode, text) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                match Results.Cell.of_json cell with
                | Error e -> check false "serve: bad cell for %d: %s" s.req.P.id e
                | Ok c ->
                    check
                      (Results.Cell.equal_measurements c
                         (expected_cell s.req.P.workload s.req.P.mode))
                      "serve: cell %s differs from the in-process run"
                      (P.key_of_request s.req)
              end
          | P.Overloaded _ | P.Failed _ | P.Deadline _ | P.Bad_request _ ->
              incr op_failures;
              Printf.eprintf "serve: request %d failed: %s\n" s.req.P.id s.reply))
    sent

(* ---- daemon metrics ------------------------------------------------- *)

let daemon_metric d name =
  match Results.Json.of_string (String.concat "\n" (read_lines d.metrics)) with
  | Error _ -> None
  | Ok j ->
      Option.bind (Results.Json.member "metrics" j) Results.Json.to_list
      |> Option.value ~default:[]
      |> List.find_map (fun s ->
             match Option.bind (Results.Json.member "name" s) Results.Json.to_str with
             | Some n when n = name -> Some s
             | _ -> None)

let counter d name =
  Option.bind (daemon_metric d name) (fun s ->
      Option.bind (Results.Json.member "value" s) Results.Json.to_int)
  |> Option.value ~default:0

let hist_mean d name =
  match daemon_metric d name with
  | None -> 0.
  | Some s ->
      let g k = Option.value ~default:0 (Option.bind (Results.Json.member k s) Results.Json.to_int) in
      float_of_int (g "sum") /. float_of_int (max 1 (g "count"))

(* ---- in-process layer probes ----------------------------------------- *)

let per_op n f =
  let xs = List.init n (fun i -> snd (time (fun () -> f i))) in
  median xs

let layer_probes () =
  let r = (expected_cell "cfrac" "lea").Results.Cell.result in
  let cache = Results.Cache.create ~dir:(fresh_dir "probe-cache") ~build_id:"probe" () in
  let cell seed = Results.Cell.make ~size:"quick" ~build_id:"probe" ~seed r in
  Results.Cache.store cache (cell 0);
  let find () =
    Results.Cache.find cache ~workload:"cfrac" ~mode:"lea" ~size:"quick" ~seed:0 ~plan:"none"
  in
  check (find () <> None) "serve: probe cache read missed";
  let read_us = 1e6 *. per_op 2000 (fun _ -> ignore (find ())) in
  let json_us =
    1e6 *. per_op 2000 (fun _ ->
        ignore (Results.Cell.of_string (Results.Cell.to_string (cell 0))))
  in
  let write_ms = 1e3 *. per_op 50 (fun i -> Results.Cache.store cache (cell (i + 1))) in
  let jpath = Filename.concat (fresh_dir "probe-journal") "journal" in
  let oc = open_out_bin jpath in
  let append_ms =
    1e3 *. per_op 50 (fun i ->
        Harness.Journal.append_keyed oc
          { Harness.Journal.k_build = "probe"; k_workload = "cfrac"; k_mode = "lea";
            k_size = "quick"; k_seed = i; k_plan = "none"; k_result = r })
  in
  close_out oc;
  let resp = P.encode_response (P.Cell { id = 1; warm = true; cell = Results.Cell.to_json (cell 0) }) in
  let req = P.encode_request (P.request ~id:1 ~workload:"cfrac" ~mode:"lea" ~size:"quick" ()) in
  let roundtrip payload =
    let d = P.decoder () in
    P.feed d (P.encode_frame payload);
    match P.next d with Ok (Some p) -> p | _ -> failwith "serve: frame probe failed"
  in
  let frame_us =
    1e6 *. per_op 2000 (fun _ ->
        ignore (P.decode_request (roundtrip req));
        ignore (P.decode_response (roundtrip resp)))
  in
  [
    m "results.cache_read_us" "us" read_us;
    m "results.cell_json_us" "us" json_us;
    m "results.cache_write_ms" "ms" write_ms;
    m "harness.journal_append_ms" "ms" append_ms;
    m "serve.frame_roundtrip_us" "us" frame_us;
  ]

(* ---- the run --------------------------------------------------------- *)

(* The simulated figures of the distinct cells the daemon computed
   during set-up: every warm cell, the cold cell's (workload, mode)
   among them. *)
let served_sim warm =
  sim_metrics
    (List.filter_map
       (fun s ->
         match P.decode_response s.reply with
         | Ok (P.Cell { cell; _ }) -> (
             match Results.Cell.of_json cell with
             | Ok c -> Some c.Results.Cell.result
             | Error _ -> None)
         | _ -> None)
       warm)

(* CPU seconds the daemon has used, from /proc (in units of 1/100 s). *)
let daemon_cpu_s d =
  match read_lines (Printf.sprintf "/proc/%d/stat" d.pid) with
  | l :: _ -> (
      let i = String.rindex l ')' in
      match String.split_on_char ' ' (String.sub l (i + 2) (String.length l - i - 2)) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
          float_of_int (int_of_string utime + int_of_string stime) /. 100.
      | _ -> nan)
  | [] -> nan

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The timed part on the daemon [d]: whole rounds, each checked
   untimed afterwards.  Returns the rounds' wall times, the CPU seconds
   this process and the daemon used per round, the warm and cold
   latencies in ms and the operations attempted. *)
let serve_rounds ?(min_rounds = 1) ?setup ~rng ~seconds d =
  let fds = open_connections d in
  let pending = ref [||] in
  let warm_ms = ref [] and cold_ms = ref [] and attempted = ref 0 in
  let cpu_s = ref 0. in
  let one () =
    pending := round_requests rng;
    let c0 = self_cpu_s () +. daemon_cpu_s d in
    closed_loop fds !pending;
    cpu_s := !cpu_s +. self_cpu_s () +. daemon_cpu_s d -. c0
  in
  let after () =
    Array.iter
      (fun l ->
        check_replies l;
        List.iter
          (fun s ->
            incr attempted;
            let ms = s.latency *. 1e3 in
            match s.kind with
            | Warm -> warm_ms := ms :: !warm_ms
            | Cold -> cold_ms := ms :: !cold_ms)
          l)
      !pending
  in
  let walls = rounds ~after ~min_rounds ?setup ~seconds one in
  Array.iter Unix.close fds;
  (walls, !cpu_s /. float_of_int (List.length walls), !warm_ms, !cold_ms, !attempted)

let check_repro repro =
  if repro = "" || not (Sys.file_exists repro) then
    failwith "serve: --repro must name the built repro executable"

let run ~repro ~seed ~seconds =
  check_repro repro;
  let k = ref 0 in
  let start_and_warm () =
    incr k;
    set_up ~repro !k
  in
  (* The first daemon serves the run; each later set-up starts and
     warms a daemon of its own, which is then stopped untimed. *)
  let set_up_again () =
    let d, _ = timed_setup start_and_warm in
    stop d;
    rm_rf d.dir
  in
  let d, warm = timed_setup start_and_warm in
  check_replies warm;
  let setup_rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
  let _, round_cpu_s, _, _, attempted =
    serve_rounds ~setup:(5, set_up_again) ~rng:(Sim.Rng.create seed) ~seconds d
  in
  stop d;
  (* [host_s] is the CPU time a round costs both processes.  Its wall
     time is mostly hand-offs between them, each a wait for a vCPU to
     wake, and on a shared host whole runs fall into stretches of slow
     wake-ups that the probe does not see. *)
  ( attempted,
    [
      m "setup_s" "s" (setup_s ());
      m "host_s" "s" (scaled round_cpu_s);
      m "peak_rss_mb" "MB" setup_rss;
    ]
    @ served_sim warm )

(* The traced pass: a traced set-up (the daemon start), [rss_rounds]
   untraced rounds, whose latencies give the per-layer medians and
   whose median is the baseline of the tracing overhead, then one
   traced round and the in-process layer probes. *)
let layers ~repro ~seed =
  check_repro repro;
  tracing := true;
  let d, warm = set_up ~repro 0 in
  tracing := false;
  check_replies warm;
  let daemon_rss () = peak_rss_mb ~pid:(string_of_int d.pid) () in
  let setup_rss = daemon_rss () in
  let rng = Sim.Rng.create seed in
  let walls, _, warm_ms, cold_ms, attempted =
    serve_rounds ~min_rounds:rss_rounds ~rng ~seconds:0. d
  in
  let serving_rss = daemon_rss () in
  tracing := true;
  let traced, _, _, _, traced_attempted = serve_rounds ~rng ~seconds:0. d in
  tracing := false;
  stop d;
  {
    attempted = attempted + traced_attempted;
    metrics =
      layer_probes ()
      @ [
          m "serve.warm_p50_ms" "ms" (median warm_ms);
          m "serve.cold_p50_ms" "ms" (median cold_ms);
          mi "serve.warm_hits" "count" (counter d "serve_warm_hits_total");
          mi "serve.cold_runs" "count" (counter d "serve_cold_cells_total");
          m "serve.queue_wait_ms" "ms" (hist_mean d "serve_wait_ms");
          m "serve.rss_growth_mb" "MB" (serving_rss -. setup_rss);
        ];
    overhead = List.hd traced -. median walls;
  }
