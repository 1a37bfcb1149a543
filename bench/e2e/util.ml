(* Clock, busy work and seeded randomness shared by every workload.
   Everything called inside a measured loop is allocation-free: the
   clock external returns an unboxed int64 and [Gc.minor_words] an
   unboxed float, both converted to [int] on the spot. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* [n] iterations of work the compiler cannot remove: the seeded
   "think time" and task bodies of the workloads. *)
let spin n =
  let r = ref 0 in
  for _ = 1 to n do
    r := Sys.opaque_identity (!r + 1)
  done

(* Words this domain has allocated on its minor heap so far. *)
let minor_words () = int_of_float (Gc.minor_words ())

let sleep_until t =
  let d = t - now () in
  if d > 0 then Unix.sleepf (float_of_int d *. 1e-9)

(* One independent stream per workload and purpose, so changing how one
   input is drawn never shifts another. *)
let rng ~seed ~stream = Random.State.make [| seed; stream |]

let exponential st ~mean = -.mean *. log (1. -. Random.State.float st 1.)

(* Knuth's product-of-uniforms sampler: exact, and fast enough for the
   small means used here. *)
let poisson st ~mean =
  let limit = exp (-.mean) in
  let rec go k p =
    let p = p *. Random.State.float st 1. in
    if p <= limit then k else go (k + 1) p
  in
  go 0 1.

(* A value domains block on, for start and readiness signals.  Blocking
   rather than spinning matters on two cores: a spinning waiter holds a
   core that the domain it waits for needs, and set-up time then jumps
   by whole scheduler time slices. *)
type signal = { m : Mutex.t; c : Condition.t; mutable v : int }

let signal () = { m = Mutex.create (); c = Condition.create (); v = 0 }

let update s f =
  Mutex.lock s.m;
  s.v <- f s.v;
  Condition.broadcast s.c;
  Mutex.unlock s.m

(* Block until [ok] holds of the value; returns it. *)
let await s ok =
  Mutex.lock s.m;
  while not (ok s.v) do
    Condition.wait s.c s.m
  done;
  let v = s.v in
  Mutex.unlock s.m;
  v

let ns_of_s s = int_of_float (s *. 1e9)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
