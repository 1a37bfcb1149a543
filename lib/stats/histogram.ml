type t = {
  sub_bits : int;
  sub : int; (* 2^sub_bits *)
  buckets : int array; (* major-magnitude x linear sub-bucket counts *)
  mutable total : int;
  mutable max_seen : float;
}

let majors = 63 (* value magnitudes up to 2^62 *)

let create ?(sub_bits = 8) () =
  if sub_bits < 0 || sub_bits > 16 then invalid_arg "Histogram.create: sub_bits out of range";
  let sub = 1 lsl sub_bits in
  { sub_bits; sub; buckets = Array.make (majors * sub) 0; total = 0; max_seen = 0.0 }

(* Index of the bucket containing integer value [v]: values below
   [sub] map exactly to major 0's sub-buckets; a larger value uses
   the position of its highest set bit as the major bucket and the
   [sub_bits] bits below it as the linear sub-bucket. *)
let index_of t v =
  if v < t.sub then v
  else begin
    let rec msb acc x = if x <= 1 then acc else msb (acc + 1) (x lsr 1) in
    let m = msb 0 v in
    let major = m - t.sub_bits + 1 in
    let sub = (v lsr (m - t.sub_bits)) land (t.sub - 1) in
    (major * t.sub) + sub
  end

(* Upper bound of the values mapped to bucket [i] (inclusive). *)
let upper_of t i =
  let major = i / t.sub and sub = i mod t.sub in
  if major = 0 then sub
  else begin
    let unit = 1 lsl (major - 1) in
    (((t.sub + sub + 1) * unit) - 1)
  end

let add t sample =
  let v = if sample <= 0.0 then 0 else int_of_float sample in
  let i = index_of t v in
  let i = if i >= Array.length t.buckets then Array.length t.buckets - 1 else i in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.total <- t.total + 1;
  if sample > t.max_seen then t.max_seen <- sample

let sub_bits t = t.sub_bits
let count t = t.total
let max_recorded t = t.max_seen

let percentile t p =
  if t.total = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
  let rank = max 1 (min t.total rank) in
  let rec walk i acc =
    let acc = acc + t.buckets.(i) in
    if acc >= rank then float_of_int (upper_of t i) else walk (i + 1) acc
  in
  Float.min (walk 0 0) (Float.max t.max_seen 0.0)

let merge_into ~into t =
  if into.sub_bits <> t.sub_bits then invalid_arg "Histogram.merge_into: sub_bits mismatch";
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) t.buckets;
  into.total <- into.total + t.total;
  if t.max_seen > into.max_seen then into.max_seen <- t.max_seen

let mean t =
  if t.total = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    Array.iteri
      (fun i c -> if c > 0 then sum := !sum +. (float_of_int c *. float_of_int (upper_of t i)))
      t.buckets;
    !sum /. float_of_int t.total
  end
