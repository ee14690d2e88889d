(* Host cost of the cache simulator: [Sim.Memory.load]/[store] over a
   fixed address stream, timed with the cache simulator on and off.
   The difference per access is what the simulator pays to price one
   memory access into stalls. *)

let pages = 256 (* 1 MB: larger than the modelled L2, so misses occur *)
let accesses = 2_000_000

let stream_time ~with_cache =
  let mem = Sim.Memory.create ~with_cache () in
  let base = Sim.Memory.map_pages mem pages in
  let words = pages * 4096 / 4 in
  let best = ref infinity in
  for _ = 1 to 3 do
    (* Fixed stream: a short sequential run at a pseudo-random word. *)
    let x = ref 12345 in
    let t0 = Unix.gettimeofday () in
    let i = ref 0 in
    while !i < accesses do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let w = !x mod (words - 8) in
      for k = 0 to 7 do
        let a = base + ((w + k) * 4) in
        if k land 3 = 3 then Sim.Memory.store mem a k
        else ignore (Sim.Memory.load mem a)
      done;
      i := !i + 8
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let ns_per_access () =
  let on = stream_time ~with_cache:true and off = stream_time ~with_cache:false in
  (on -. off) *. 1e9 /. float_of_int accesses
