(* See alloc_probe.mli. *)

type t = {
  mutable enq_ops : float;
  mutable enq_words : float;
  mutable deq_ops : float;
  mutable deq_words : float;
}

type cls = Enqueue | Dequeue

let create () = { enq_ops = 0.0; enq_words = 0.0; deq_ops = 0.0; deq_words = 0.0 }

let reset t =
  t.enq_ops <- 0.0;
  t.enq_words <- 0.0;
  t.deq_ops <- 0.0;
  t.deq_words <- 0.0

let record t cls words =
  match cls with
  | Enqueue ->
    t.enq_ops <- t.enq_ops +. 1.0;
    t.enq_words <- t.enq_words +. words
  | Dequeue ->
    t.deq_ops <- t.deq_ops +. 1.0;
    t.deq_words <- t.deq_words +. words

let merge_into ~into t =
  into.enq_ops <- into.enq_ops +. t.enq_ops;
  into.enq_words <- into.enq_words +. t.enq_words;
  into.deq_ops <- into.deq_ops +. t.deq_ops;
  into.deq_words <- into.deq_words +. t.deq_words

let ops t = function Enqueue -> t.enq_ops | Dequeue -> t.deq_ops
let words t = function Enqueue -> t.enq_words | Dequeue -> t.deq_words

let per num den = if den = 0.0 then 0.0 else num /. den
let words_per_enqueue t = per t.enq_words t.enq_ops
let words_per_dequeue t = per t.deq_words t.deq_ops
let words_per_op t = per (t.enq_words +. t.deq_words) (t.enq_ops +. t.deq_ops)
