(* mutators: the server scenario under safe regions at one mutator and
   at eight, with the same total requests.  The only workload on
   [Regions.Sched] and the per-mutator bump path. *)

open Common
module S = Workloads.Server
module R = Workloads.Results
module Api = Workloads.Api

(* Each round serves four scenarios drawn from the seed, so that the
   simulated peaks (OS pages, above all) average over several request
   streams rather than hang on one. *)
let scenarios = 4
let requests = 1_500
let counts = [ 1; 8 ]

let params ~seed ~requests n =
  { S.mutators = n; requests; quantum = 16; seed; bump = true }

let serve_once p =
  let api = Api.create ~with_cache:true (Api.Region { safe = true }) in
  let span = Printf.sprintf "server_run:n%d" p.S.mutators in
  let o =
    timed_op (Printf.sprintf "%s:seed%d" span p.S.seed) (fun () ->
        with_span span (fun () -> S.run api p))
  in
  let r =
    R.collect api ~workload:(Printf.sprintf "server-%d" p.S.mutators)
      ~summary:(Printf.sprintf "served=%d" o.S.served)
  in
  (o, r)

let round ~seed ~requests () =
  List.concat_map
    (fun k ->
      let seed = (seed * scenarios) + k in
      List.map (fun n -> (n, seed, serve_once (params ~seed ~requests n))) counts)
    (List.init scenarios Fun.id)

let check_outcomes results =
  List.iter
    (fun (n, seed, ((o : S.outcome), _)) ->
      check (o.S.served = requests) "mutators: n%d seed %d served %d of %d requests" n
        seed o.S.served requests;
      let per = Array.fold_left (fun a s -> a + s.S.ms_served) 0 o.S.per_mutator in
      check (per = requests) "mutators: n%d seed %d per-mutator served sums to %d, not %d"
        n seed per requests;
      let api = Api.create ~with_cache:true (Api.Region { safe = true }) in
      let off = S.run api { (params ~seed ~requests n) with S.bump = false } in
      check (off.S.checksum = o.S.checksum)
        "mutators: n%d seed %d address checksum %x differs from the bump-off run's %x" n
        seed o.S.checksum off.S.checksum)
    results

let bump_metrics results =
  List.concat_map
    (fun n ->
      let mine = List.filter (fun (n', _, _) -> n' = n) results in
      let s f = List.fold_left (fun acc (_, _, ((o : S.outcome), _)) -> acc + f o) 0 mine in
      let b f = s (fun o -> f o.S.bump_stats) in
      let hits = b (fun x -> x.Regions.Region.bs_hits)
      and refills = b (fun x -> x.Regions.Region.bs_refills)
      and allocs = s (fun o -> o.S.allocs) in
      let k name = Printf.sprintf "regions.n%d.%s" n name in
      [
        mi (k "bump_hits") "count" hits;
        mi (k "bump_refills") "count" refills;
        mi (k "bump_opens") "count" (b (fun x -> x.Regions.Region.bs_opens));
        m (k "bump_hit_ratio") "ratio" (float_of_int hits /. float_of_int (max 1 allocs));
        mi (k "bump_other_misses") "count" (allocs - hits - refills);
      ]
      (* One mutator never hands off. *)
      @ if n > 1 then [ mi (k "sched_handoffs") "count" (s (fun o -> o.S.handoffs)) ] else [])
    counts

(* Set-up: a full-size warm-up round, long enough for its time not to
   hang on timer and first-touch noise. *)
let set_up ~seed () = ignore (round ~seed ~requests ())

let run ~seed ~seconds =
  timed_setup (set_up ~seed);
  let last = ref [] in
  let walls =
    rounds ~setup:(5, fun () -> timed_setup (set_up ~seed)) ~seconds (fun () ->
        last := round ~seed ~requests ())
  in
  let rss = peak_rss_mb () in
  check_outcomes !last;
  ( List.length walls * List.length counts * scenarios,
    [
      m "setup_s" "s" (setup_s ());
      m "host_s" "s" (ops_host_s ());
      m "peak_rss_mb" "MB" rss;
    ]
    @ sim_metrics (List.map (fun (_, _, (_, r)) -> r) !last) )

(* The traced pass: one untraced round (checked, and the baseline of the
   tracing overhead), then the same round traced. *)
let layers ~seed =
  set_up ~seed ();
  let untraced, untraced_wall = time (round ~seed ~requests) in
  check_outcomes untraced;
  tracing := true;
  let traced, traced_wall = time (round ~seed ~requests) in
  tracing := false;
  let instrs =
    List.fold_left (fun a (_, _, (_, r)) -> a + r.R.base_instrs + R.memory_instrs r) 0 traced
  in
  {
    attempted = 2 * List.length counts * scenarios;
    metrics =
      [
        m "sim.host_ns_per_instr" "ns"
          (total_where (String.starts_with ~prefix:"server_run:") *. 1e9 /. float_of_int instrs);
        m "sim.cache_ns_per_access" "ns" (Cache_probe.ns_per_access ());
      ]
      @ W_report.region_layer_metrics
          (List.map (fun (_, _, (_, r)) -> (Api.Region { safe = true }, r)) traced)
      @ bump_metrics traced;
    overhead = traced_wall -. untraced_wall;
  }
