(* Entry point: run one workload of the benchmark and print its result
   line.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --repro PATH

   [--repro] names the built [repro] executable, which the [serve]
   workload starts as its daemon.  An untraced run prints the
   end-to-end metrics of its workload; a traced run ([--trace 1])
   prints every per-layer metric.  The last line of standard output is
   the JSON result; diagnostics go to standard error. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and repro = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME report|replay|mutators|serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed part runs");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run: per-layer metrics");
      ("--repro", Arg.Set_string repro, "PATH the repro executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let workload = !workload and repro = !repro in
  let passes =
    [
      ("report", W_report.layers);
      ("replay", W_replay.layers);
      ("mutators", W_mutators.layers);
      ("serve", W_serve.layers ~repro);
    ]
  in
  if not (List.mem_assoc workload passes) then begin
    Printf.eprintf "bench: unknown workload %S\n" workload;
    exit 2
  end;
  mkdir_p work_root;
  print_fingerprint ();
  ignore (Lazy.force prober);
  if not traced then begin
    let attempted, metrics =
      match workload with
      | "report" -> W_report.run ~seed ~seconds
      | "replay" -> W_replay.run ~seed ~seconds
      | "mutators" -> W_mutators.run ~seed ~seconds
      | _ -> W_serve.run ~repro ~seed ~seconds
    in
    print_result ~attempted ~failed:!op_failures metrics
  end
  else begin
    (* A traced run reports every layer, whichever workload it names:
       the named workload's traced pass runs first and gives the tracing
       overhead, then the other workloads' passes give the layers it
       does not reach.  A metric two passes give is taken from the
       first. *)
    let order =
      List.assoc workload passes
      :: List.filter_map (fun (w, f) -> if w = workload then None else Some f) passes
    in
    let results = List.map (fun f -> f ~seed) order in
    let own = List.hd results in
    let seen = Hashtbl.create 64 in
    let metrics =
      List.filter
        (fun x ->
          let fresh = not (Hashtbl.mem seen x.name) in
          Hashtbl.replace seen x.name ();
          fresh)
        (List.concat_map (fun (r : layers) -> r.metrics) results)
      @ [ m "bench.trace_overhead_s" "s" own.overhead ]
    in
    let path =
      Filename.concat work_root (Printf.sprintf "spans-%s-%d.json" workload seed)
    in
    write_spans ~path ~overhead_s:own.overhead;
    Printf.printf "spans %s\n" path;
    let attempted = List.fold_left (fun a (r : layers) -> a + r.attempted) 0 results in
    print_result ~attempted ~failed:!op_failures metrics
  end
