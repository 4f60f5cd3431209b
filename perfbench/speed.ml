(* The host's current speed, read by timing a fixed piece of work.

   The benchmark runs on a shared host whose speed drifts: the same
   work can take twice as long from one second to the next, and slow
   stretches last minutes, so raw latencies of the same code differ by
   a fifth to a third from run to run.  [probe ()] times [work], which
   the benchmark runs between operations: the same loop of integer
   hashing, byte reads, float adds and scattered writes, once into a
   16 KiB table that stays in the L1 cache and once into a 1 MiB table
   that lives in the L2 cache.  [work] touches no code of the program
   and allocates nothing, so the program's heap, GC and code cannot
   change how long it takes.

   Of the probes tried (these two loops, pointer chases over 4 and
   32 MiB, string hashtable lookups and short-lived allocation), the
   sum of these two loops tracked the program's own slowdowns about as
   well as any mix and better than any single loop: normalised by it,
   the run-to-run spread of match latency fell from 0.17-0.24 to
   0.03-0.04 of the median on every workload.

   [normalise ~probe_ms x] rescales a duration [x], measured while
   [probe] took [probe_ms], to the reference speed at which [probe]
   takes [reference_ms]. *)

let bytes = Bytes.init 4096 (fun i -> Char.chr ((i * 7919) land 255))
let sink = ref 0
let iterations = 300_000

let scatter table () =
  let mask = Array.length table - 1 in
  let h = ref 0x2545F491 and acc = ref 0.0 in
  for i = 0 to iterations - 1 do
    let c = Char.code (Bytes.unsafe_get bytes (i land 4095)) in
    h := ((!h * 31) + c) land 0x3FFFFFFF;
    let k = (!h lxor (!h lsr 13)) land mask in
    Array.unsafe_set table k (Array.unsafe_get table k + c);
    acc := !acc +. (float_of_int c *. 0.5)
  done;
  (* keep the result live so the loop is not optimised away *)
  if !acc < 0.0 then sink := !h

let l1_table = Array.make 2048 0
let l2_table = Array.make (1 lsl 17) 0

let work () =
  scatter l1_table ();
  scatter l2_table ()

(* Milliseconds [work] took just now. *)
let probe () =
  let t0 = Robust.Deadline.now_ns () in
  work ();
  Int64.to_float (Int64.sub (Robust.Deadline.now_ns ()) t0) /. 1e6

let reference_ms = 2.5
let normalise ~probe_ms x = x *. reference_ms /. probe_ms
