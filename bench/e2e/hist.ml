(* Log-linear histogram over non-negative ints (nanoseconds).  Values
   below [2 * sub] are exact; above, every power of two is split into
   [sub] buckets, under 1% relative width.  Unlike [Stats.Histogram],
   whose [add] takes a float, [add] here takes an [int] and never
   allocates, so recording a sample cannot itself cause the GC pause
   the benchmark is trying to measure. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let max_bits = 40 (* values saturate at ~18 minutes *)
let buckets = (max_bits - sub_bits + 1) * sub

type t = { counts : int array; mutable total : int; mutable max : int }

let create () = { counts = Array.make buckets 0; total = 0; max = 0 }

let index v =
  if v < sub then if v < 0 then 0 else v
  else begin
    let v = if v >= 1 lsl max_bits then (1 lsl max_bits) - 1 else v in
    let x = ref v and e = ref 0 in
    if !x >= 1 lsl 32 then (x := !x lsr 32; e := 32);
    if !x >= 1 lsl 16 then (x := !x lsr 16; e := !e + 16);
    if !x >= 1 lsl 8 then (x := !x lsr 8; e := !e + 8);
    if !x >= 1 lsl 4 then (x := !x lsr 4; e := !e + 4);
    if !x >= 1 lsl 2 then (x := !x lsr 2; e := !e + 2);
    if !x >= 2 then incr e;
    let shift = !e - sub_bits in
    (shift * sub) + (v lsr shift)
  end

let lower i = if i < 2 * sub then i else ((i land (sub - 1)) + sub) lsl ((i / sub) - 1)
let width i = if i < 2 * sub then 1 else 1 lsl ((i / sub) - 1)

let add t v =
  let i = index v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
  t.total <- t.total + 1;
  if v > t.max then t.max <- v

let merge ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.total <- into.total + t.total;
  if t.max > into.max then into.max <- t.max

(* The [q]-quantile, interpolated linearly inside its bucket so that it
   moves continuously with the data instead of snapping to bucket
   edges.  0 for an empty histogram. *)
let quantile t q =
  if t.total = 0 then 0.
  else begin
    let target = q *. float_of_int t.total in
    let rec go i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= target then
        let frac = Float.max 0. ((target -. float_of_int cum) /. float_of_int c) in
        Float.min (float_of_int t.max) (float_of_int (lower i) +. (frac *. float_of_int (width i)))
      else if i = buckets - 1 then float_of_int t.max
      else go (i + 1) (cum + c)
    in
    go 0 0
  end

(* Mean of the samples up to the [q]-quantile: the typical cost of a
   call, which one GC or host stall landing in a sampled call does not
   swamp.  0 for an empty histogram. *)
let trimmed_mean t q =
  let keep = q *. float_of_int t.total in
  let rec go i n sum =
    if i = buckets || n >= keep then if n > 0. then sum /. n else 0.
    else
      let c = Float.min (float_of_int t.counts.(i)) (keep -. n) in
      go (i + 1) (n +. c) (sum +. (c *. (float_of_int (lower i) +. (0.5 *. float_of_int (width i)))))
  in
  go 0 0. 0.

(* Samples above the [q]-quantile: the guide's "at least ten samples
   beyond the highest reported percentile" check. *)
let beyond t q = t.total - int_of_float (Float.ceil (q *. float_of_int t.total))

(* One histogram per second of the measured period, plus the whole
   run, and per second the requests due and those served within the
   SLO limit.  A tail percentile or an SLO share over the whole run is
   at the mercy of one host stall; the median over windows of the
   per-window value is what stays repeatable from run to run. *)
module Windows = struct
  type nonrec t = { all : t; win : t array; limit : int; within : int array; expected : int array }

  let create ~seconds ~limit =
    let n = max 1 (int_of_float (Float.ceil seconds)) in
    { all = create (); win = Array.init n (fun _ -> create ()); limit; within = Array.make n 0; expected = Array.make n 0 }

  (* [at]: ns since the start of the measured period. *)
  let slot w at =
    let k = at / 1_000_000_000 in
    if k < 0 then 0 else if k >= Array.length w.win then Array.length w.win - 1 else k

  (* A request served with latency [v]. *)
  let add w ~at v =
    let k = slot w at in
    add (Array.unsafe_get w.win k) v;
    add w.all v;
    if v <= w.limit then Array.unsafe_set w.within k (Array.unsafe_get w.within k + 1)

  (* A request due: served, late, lost or failed. *)
  let expect w ~at =
    let k = slot w at in
    Array.unsafe_set w.expected k (Array.unsafe_get w.expected k + 1)

  let merge ~into w =
    merge ~into:into.all w.all;
    Array.iteri (fun i h -> merge ~into:into.win.(i) h) w.win;
    Array.iteri (fun i c -> into.within.(i) <- into.within.(i) + c) w.within;
    Array.iteri (fun i c -> into.expected.(i) <- into.expected.(i) + c) w.expected

  let windowed w q =
    Util.median (Array.fold_right (fun h acc -> if h.total > 0 then quantile h q :: acc else acc) w.win [])

  (* Median over windows of the share of due requests served within
     the limit. *)
  let attained w =
    let shares = ref [] in
    Array.iteri
      (fun k e -> if e > 0 then shares := (float_of_int w.within.(k) /. float_of_int e) :: !shares)
      w.expected;
    Util.median !shares
end
