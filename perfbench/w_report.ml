(* report: the cold quick paper evaluation.  Every (workload x mode)
   cell of the report is executed in full on this domain with no cell
   cache, in an order drawn from the seed, and then every table and
   figure is rendered. *)

open Common
module M = Harness.Matrix
module W = Workloads.Workload
module R = Workloads.Results
module Api = Workloads.Api

let renders : (string * (M.t -> string)) list =
  [
    ("table1", fun _ -> Harness.Table1.render ());
    ("table2", Harness.Table23.render_table2);
    ("table3", Harness.Table23.render_table3);
    ("fig8", Harness.Fig8.render);
    ("fig9", Harness.Fig9.render);
    ("fig10", Harness.Fig10.render);
    ("fig11", Harness.Fig11.render);
    ("claims", Harness.Claims.render);
    ("ablations", fun _ -> Harness.Ablations.render ());
    ("limitation", fun _ -> Harness.Limitation.render ());
  ]

let cells ~seed = shuffle ~seed (M.report_cells ())
let ops_per_round = List.length (M.report_cells ()) + List.length renders

(* One round of the timed part: a fresh matrix filled cell by cell
   through [Matrix.get], then every render.  Returns the matrix and the
   rendered text.  A traced round runs the same code inside spans. *)
let round ~seed () =
  let m = M.create W.Quick in
  with_span "fill" (fun () ->
      List.iter
        (fun ((spec : W.spec), mode) ->
          let key = Printf.sprintf "cell:%s:%s" spec.W.name (Api.mode_name mode) in
          timed_op key (fun () ->
              with_span ("get:" ^ spec.W.name) (fun () -> ignore (M.get m spec mode))))
        (cells ~seed));
  let texts =
    List.map
      (fun (name, f) ->
        timed_op ("render:" ^ name) (fun () ->
            with_span ("render:" ^ name) (fun () -> (name, f m))))
      renders
  in
  (m, texts)

(* Set-up: a fresh matrix plus a warm-up pass of cfrac and mudlle under
   their six columns each, direct and emulated, so first-touch costs are
   not charged to the timed part.  At about half a second it is long
   enough for its time not to hang on one moment's interference. *)
let warm_up () =
  let m = M.create W.Quick in
  List.iter
    (fun name ->
      let spec = W.find name in
      List.iter (fun mode -> ignore (M.get m spec mode)) (W.modes_for spec))
    [ "cfrac"; "mudlle" ]

let results m =
  List.map (fun (spec, mode) -> (spec, mode, M.get m spec mode)) (M.report_cells ())

(* The checks compare columns against each other and against required
   properties, never against stored output. *)
let check_outputs m texts =
  let rs = results m in
  List.iter
    (fun (spec : W.spec) ->
      let row =
        List.filter_map
          (fun (s, _, r) -> if s.W.name = spec.W.name then Some r else None)
          rs
      in
      check (List.length row = 6) "report: %s has %d columns" spec.W.name
        (List.length row);
      match row with
      | [] -> ()
      | r0 :: _ ->
          List.iter
            (fun r ->
              check (r.R.summary = r0.R.summary)
                "report: %s outcome differs under %s: %S vs %S" spec.W.name
                r.R.mode r.R.summary r0.R.summary;
              check
                (r.R.req_allocs = r0.R.req_allocs
                && r.R.req_total_bytes = r0.R.req_total_bytes
                && r.R.req_max_bytes = r0.R.req_max_bytes)
                "report: %s requested allocations differ under %s" spec.W.name
                r.R.mode)
            row)
    M.workloads;
  (* cfrac's factor must divide its input, in native arithmetic. *)
  let n = int_of_string Workloads.Cfrac.default_params.Workloads.Cfrac.n in
  List.iter
    (fun (s, _, r) ->
      if s.W.name = "cfrac" then
        match Scanf.sscanf_opt r.R.summary "factor=%d " (fun f -> f) with
        | Some f ->
            check (f > 1 && f < n && n mod f = 0)
              "report: cfrac factor %d does not divide %d under %s" f n r.R.mode
        | None -> check false "report: cfrac outcome %S has no factor" r.R.summary)
    rs;
  List.iter
    (fun (v, claim, numbers) ->
      check (v = Harness.Claims.Pass) "report: claim not reproduced: %s (%s)"
        claim numbers)
    (Harness.Claims.verdicts m);
  List.iter
    (fun (name, text) -> check (String.length text > 0) "report: %s rendered empty" name)
    texts

(* ---- traced round --------------------------------------------------- *)

(* The same three steps as [Workload.run_collect], so that the cache
   simulator's miss counters can be read before the machine is
   dropped. *)
let run_collect_counted (spec : W.spec) mode =
  let api = Api.create ~with_cache:true mode in
  let summary = spec.W.run api W.Quick in
  let r = R.collect api ~workload:spec.W.name ~summary in
  let l1, l2 =
    match Sim.Memory.cache (Api.memory api) with
    | Some c -> (Sim.Cache.l1_misses c, Sim.Cache.l2_misses c)
    | None -> (0, 0)
  in
  (r, l1, l2)

let column = function
  | Api.Direct Api.Sun | Api.Emulated Api.Sun -> "alloc.sun"
  | Api.Direct Api.Bsd | Api.Emulated Api.Bsd -> "alloc.bsd"
  | Api.Direct Api.Lea | Api.Emulated Api.Lea -> "alloc.lea"
  | Api.Direct Api.Gc | Api.Emulated Api.Gc -> "gcsim.gc"
  | Api.Region { safe = true } -> "regions.safe"
  | Api.Region { safe = false } -> "regions.unsafe"

let columns =
  [ "alloc.sun"; "alloc.bsd"; "alloc.lea"; "gcsim.gc"; "regions.safe"; "regions.unsafe" ]

(* Per-column allocator figures over a list of (mode, result). *)
let column_metrics rs =
  List.concat_map
    (fun col ->
      let mine = List.filter (fun (mode, _) -> column mode = col) rs in
      let s f = List.fold_left (fun acc (_, r) -> acc + f r) 0 mine in
      [
        m (col ^ ".instrs_per_alloc") "instrs"
          (float_of_int (s (fun r -> r.R.alloc_instrs))
          /. float_of_int (max 1 (s (fun r -> r.R.req_allocs))));
        m (col ^ ".os_kb") "KB" (float_of_int (s (fun r -> r.R.os_bytes)) /. 1024.);
      ])
    columns

let region_layer_metrics rs =
  let s f =
    List.fold_left
      (fun acc (mode, r) -> match mode with Api.Region _ -> acc + f r | _ -> acc)
      0 rs
  in
  [
    mi "regions.refcount_instrs" "instrs" (s (fun r -> r.R.refcount_instrs));
    mi "regions.stack_scan_instrs" "instrs" (s (fun r -> r.R.stack_scan_instrs));
    mi "regions.cleanup_instrs" "instrs" (s (fun r -> r.R.cleanup_instrs));
  ]

(* The traced run times the untraced round's own code inside spans
   ([fill], [get:<program>], [render:<name>]); the difference from the
   untraced round is the tracing overhead.  A separate counting pass,
   outside that interval, then computes each cell with
   [run_collect_counted] under a [run_collect:<program>] span, for the
   miss counters and the per-program host times. *)
let per_layer ~seed ~untraced_wall =
  tracing := true;
  let _, traced_wall = time (round ~seed) in
  let counted =
    List.map
      (fun ((spec : W.spec), mode) ->
        let r, l1, l2 =
          with_span ("run_collect:" ^ spec.W.name) (fun () -> run_collect_counted spec mode)
        in
        (spec, mode, r, l1, l2))
      (cells ~seed)
  in
  tracing := false;
  let sum f = List.fold_left (fun acc (_, _, r, _, _) -> acc + f r) 0 counted in
  let instrs = sum (fun r -> r.R.base_instrs + R.memory_instrs r) in
  let by_mode = List.map (fun (_, mode, r, _, _) -> (mode, r)) counted in
  let collect_s = total_where (String.starts_with ~prefix:"run_collect:") in
  let programs = List.sort_uniq compare (List.map (fun (s, _, _, _, _) -> s.W.name) counted) in
  let metrics =
    [
      m "sim.host_ns_per_instr" "ns" (collect_s *. 1e9 /. float_of_int instrs);
      m "sim.cache_ns_per_access" "ns" (Cache_probe.ns_per_access ());
      mi "sim.l1_misses" "count" (List.fold_left (fun a (_, _, _, l1, _) -> a + l1) 0 counted);
      mi "sim.l2_misses" "count" (List.fold_left (fun a (_, _, _, _, l2) -> a + l2) 0 counted);
      mi "sim.read_stall_cycles" "cycles" (sum (fun r -> r.R.read_stall_cycles));
      mi "sim.write_stall_cycles" "cycles" (sum (fun r -> r.R.write_stall_cycles));
    ]
    @ column_metrics by_mode
    @ region_layer_metrics by_mode
    @ List.map
        (fun w -> m (Printf.sprintf "workloads.%s.host_s" w) "s" (total ("run_collect:" ^ w)))
        programs
    @ [
        mi "workloads.base_instrs" "instrs" (sum (fun r -> r.R.base_instrs));
        m "harness.fill_s" "s" (total "fill");
        m "harness.render_s" "s" (total_where (String.starts_with ~prefix:"render:"));
      ]
  in
  (metrics, List.length counted, traced_wall -. untraced_wall)

(* The traced pass: warm up, one untraced round (checked, and the
   baseline of the tracing overhead), then [per_layer]. *)
let layers ~seed =
  warm_up ();
  let (mtx, texts), untraced_wall = time (round ~seed) in
  check_outputs mtx texts;
  let metrics, counted, overhead = per_layer ~seed ~untraced_wall in
  { attempted = (2 * ops_per_round) + counted; metrics; overhead }

(* A round takes 6-11 s on a 2-vCPU host, so a run of [--seconds 20]
   could hold only two; with three, one disturbed round cannot set an
   operation's median. *)
let min_rounds = 3

let run ~seed ~seconds =
  timed_setup warm_up;
  let last = ref None in
  let walls =
    rounds ~min_rounds ~setup:(5, fun () -> timed_setup warm_up) ~seconds (fun () ->
        last := Some (round ~seed ()))
  in
  let rss = peak_rss_mb () in
  let mtx, texts = Option.get !last in
  check_outputs mtx texts;
  ( List.length walls * ops_per_round,
    [
      m "setup_s" "s" (setup_s ());
      m "host_s" "s" (ops_host_s ());
      m "peak_rss_mb" "MB" rss;
    ]
    @ sim_metrics (List.map (fun (_, _, r) -> r) (results mtx)) )
