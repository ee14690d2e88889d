(* replay: two synthetic traces are written by [Trace.Gen] and replayed
   against every column each one serves.  The malloc-variant trace has
   exponential lifetimes (interleaved deaths); the region-variant trace
   has LIFO batches.  No mutator code runs and the cache simulator is
   off, so trace encoding, trace decoding and the allocators do the
   work. *)

open Common
module G = Trace.Gen
module F = Trace.Format
module R = Workloads.Results
module Api = Workloads.Api

let malloc_objects = 100_000
let region_objects = 250_000
let stores = 1

let specs ~seed ~objects_scale =
  let sc n = max 1 (n * objects_scale / 100) in
  [
    ( {
        G.objects = sc malloc_objects;
        variant = "malloc";
        sizes = G.Table2;
        lifetime = G.Exp { mean = 1000 };
        stores;
        seed;
      },
      [ Api.Direct Api.Sun; Api.Direct Api.Bsd; Api.Direct Api.Lea; Api.Direct Api.Gc ] );
    ( {
        G.objects = sc region_objects;
        variant = "region";
        sizes = G.Table2;
        lifetime = G.Lifo { batch = 64 };
        stores;
        seed;
      },
      [ Api.Region { safe = true }; Api.Region { safe = false } ] );
  ]

let trace_path dir (p : G.t) = Filename.concat dir (p.G.variant ^ ".trace")

let with_reader path f =
  match F.open_file path with
  | Error msg -> failwith (Printf.sprintf "replay: %s: %s" path msg)
  | Ok rd -> Fun.protect ~finally:(fun () -> F.close rd) (fun () -> f rd)

(* One round: generate both traces, replay each against its columns. *)
let round ~dir ~seed ~objects_scale () =
  List.concat_map
    (fun ((p : G.t), modes) ->
      let path = trace_path dir p in
      let gen = "gen:" ^ p.G.variant in
      timed_op gen (fun () -> with_span gen (fun () -> G.generate ~out:path p));
      List.map
        (fun mode ->
          let replay = "replay:" ^ W_report.column mode in
          let r =
            timed_op replay (fun () ->
                with_reader path (fun rd ->
                    with_span replay (fun () -> Trace.Replay.run rd mode)))
          in
          (p, mode, r))
        modes)
    (specs ~seed ~objects_scale)

let ops_per_round = 2 + 6

(* A reader pass with no allocator: counts records by kind. *)
type census = {
  mutable total : int;
  mutable allocs : int;
  mutable frees : int;
  mutable stores : int;
  mutable newregions : int;
  mutable deletes : int;
  mutable pushes : int;
  mutable pops : int;
  mutable locals : int;
  mutable other : int;
}

let decode path =
  with_reader path (fun rd ->
      let c =
        {
          total = 0; allocs = 0; frees = 0; stores = 0; newregions = 0;
          deletes = 0; pushes = 0; pops = 0; locals = 0; other = 0;
        }
      in
      let rec go () =
        match F.next rd with
        | F.End -> ()
        | r ->
            c.total <- c.total + 1;
            (match r with
            | F.Malloc _ | F.Rstralloc _ -> c.allocs <- c.allocs + 1
            | F.Free _ -> c.frees <- c.frees + 1
            | F.Store_ptr _ -> c.stores <- c.stores + 1
            | F.Newregion -> c.newregions <- c.newregions + 1
            | F.Deleteregion _ -> c.deletes <- c.deletes + 1
            | F.Frame_push _ -> c.pushes <- c.pushes + 1
            | F.Frame_pop -> c.pops <- c.pops + 1
            | F.Set_local_ptr _ -> c.locals <- c.locals + 1
            | _ -> c.other <- c.other + 1);
            go ()
      in
      go ();
      (c, F.records rd, F.objects rd, F.regions rd))

(* Expected record make-up, computed from the generator spec alone.
   Malloc traces: one malloc, one free and [stores] pointer stores per
   object (every transient dies before the end).  Region traces: per
   region a frame push, newregion, handle store, deleteregion and frame
   pop, plus the outer frame; per object one allocation and [stores]
   stores.  The region count is random, but bounded by the batch
   sizes: a batch draws 1 + batch/2 + [0, batch) objects. *)
let check_trace (p : G.t) (c, records, objects, regions) =
  let n = p.G.objects in
  let name = p.G.variant in
  check (objects = n) "replay: %s trace holds %d objects, spec says %d" name objects n;
  check (c.total = records) "replay: %s decoded %d records, trailer says %d" name c.total
    records;
  check (c.allocs = n && c.stores = n * p.G.stores)
    "replay: %s trace has %d allocations and %d stores for %d objects" name c.allocs
    c.stores n;
  match p.G.lifetime with
  | G.Lifo { batch } ->
      let lo = (n + batch + (batch / 2) - 1) / (batch + (batch / 2)) in
      let hi = (n + (batch / 2)) / (1 + (batch / 2)) + 1 in
      check (regions >= lo && regions <= hi)
        "replay: %s trace has %d regions, outside [%d, %d]" name regions lo hi;
      check
        (c.newregions = regions && c.deletes = regions && c.locals = regions
        && c.pushes = regions + 1 && c.pops = regions + 1 && c.frees = 0 && c.other = 0)
        "replay: %s trace record make-up is off" name;
      check (records = 2 + (5 * regions) + (n * (1 + p.G.stores)))
        "replay: %s trace has %d records, expected %d" name records
        (2 + (5 * regions) + (n * (1 + p.G.stores)))
  | G.Exp _ | G.Long _ ->
      check (c.frees = n && c.other = 0 && c.newregions = 0)
        "replay: %s trace record make-up is off" name;
      check (records = n * (2 + p.G.stores))
        "replay: %s trace has %d records, expected %d" name records
        (n * (2 + p.G.stores))

let check_results rs =
  List.iter
    (fun ((p : G.t), mode, r) ->
      check (r.R.req_allocs = p.G.objects)
        "replay: %s requested %d allocations, trace has %d" (Api.mode_name mode)
        r.R.req_allocs p.G.objects;
      check (r.R.os_bytes >= r.R.req_max_bytes)
        "replay: %s took %d bytes from the OS below its %d-byte requested peak"
        (Api.mode_name mode) r.R.os_bytes r.R.req_max_bytes;
      List.iter
        (fun ((q : G.t), mode', r') ->
          if q.G.variant = p.G.variant then
            check
              (r'.R.req_total_bytes = r.R.req_total_bytes
              && r'.R.req_max_bytes = r.R.req_max_bytes)
              "replay: requested bytes differ between %s and %s" (Api.mode_name mode)
              (Api.mode_name mode'))
        rs)
    rs

(* Set-up: a warm-up round at half the objects, long enough for its
   time not to hang on timer and first-touch noise, in a directory of
   its own since set-ups also run between rounds. *)
let set_up ~seed () =
  ignore (round ~dir:(fresh_dir "replay-setup") ~seed ~objects_scale:50 ())

(* Checks the last round's results and the traces it left in [dir]. *)
let check_round ~dir ~seed rs =
  let specs = specs ~seed ~objects_scale:100 in
  let census = List.map (fun (p, _) -> (p, decode (trace_path dir p))) specs in
  List.iter (fun (p, c) -> check_trace p c) census;
  check_results rs;
  census

let run ~seed ~seconds =
  let dir = fresh_dir "replay" in
  timed_setup (set_up ~seed);
  let last = ref [] in
  let walls =
    rounds ~setup:(5, fun () -> timed_setup (set_up ~seed)) ~seconds (fun () ->
        last := round ~dir ~seed ~objects_scale:100 ())
  in
  let rss = peak_rss_mb () in
  ignore (check_round ~dir ~seed !last);
  ( (List.length walls * ops_per_round) + 2,
    [
      m "setup_s" "s" (setup_s ());
      m "host_s" "s" (ops_host_s ());
      m "peak_rss_mb" "MB" rss;
    ]
    @ sim_metrics (List.map (fun (_, _, r) -> r) !last) )

(* The traced pass: one untraced round (checked, and the baseline of the
   tracing overhead), the same round traced, and a traced decode pass
   over each trace. *)
let layers ~seed =
  let dir = fresh_dir "replay" in
  set_up ~seed ();
  let rs, untraced_wall = time (round ~dir ~seed ~objects_scale:100) in
  let census = check_round ~dir ~seed rs in
  let specs = specs ~seed ~objects_scale:100 in
  tracing := true;
  let traced, traced_wall = time (round ~dir ~seed ~objects_scale:100) in
  List.iter
    (fun (p, _) -> ignore (with_span ("decode:" ^ p.G.variant) (fun () -> decode (trace_path dir p))))
    specs;
  tracing := false;
  let records = List.fold_left (fun a (_, (_, r, _, _)) -> a + r) 0 census in
  let bytes =
    List.fold_left (fun a (p, _) -> a + (Unix.stat (trace_path dir p)).Unix.st_size) 0 specs
  in
  let rate prefix = float_of_int records /. total_where (String.starts_with ~prefix) in
  let by_mode = List.map (fun (_, mode, r) -> (mode, r)) traced in
  {
    attempted = (2 * ops_per_round) + 4;
    metrics =
      [
        m "trace.encode_records_per_s" "1/s" (rate "gen:");
        m "trace.decode_records_per_s" "1/s" (rate "decode:");
        m "trace.bytes_per_record" "B" (float_of_int bytes /. float_of_int records);
      ]
      @ List.map
          (fun col -> m (col ^ ".replay_s") "s" (total ("replay:" ^ col)))
          W_report.columns
      @ W_report.column_metrics by_mode
      @ W_report.region_layer_metrics by_mode;
    overhead = traced_wall -. untraced_wall;
  }
