(* See op_latency.mli. *)

type cls = Enqueue | Dequeue | Dequeue_empty

let classes = [ Enqueue; Dequeue; Dequeue_empty ]

let class_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Dequeue_empty -> "dequeue_empty"

type t = {
  enq : Stats.Histogram.t;
  deq : Stats.Histogram.t;
  deq_empty : Stats.Histogram.t;
}

let create ?sub_bits () =
  {
    enq = Stats.Histogram.create ?sub_bits ();
    deq = Stats.Histogram.create ?sub_bits ();
    deq_empty = Stats.Histogram.create ?sub_bits ();
  }

let histogram t = function
  | Enqueue -> t.enq
  | Dequeue -> t.deq
  | Dequeue_empty -> t.deq_empty

let record t cls ns = Stats.Histogram.add (histogram t cls) ns

let merge_into ~into t =
  List.iter
    (fun c -> Stats.Histogram.merge_into ~into:(histogram into c) (histogram t c))
    classes

let combined t =
  let all = Stats.Histogram.create ~sub_bits:(Stats.Histogram.sub_bits t.enq) () in
  List.iter (fun c -> Stats.Histogram.merge_into ~into:all (histogram t c)) classes;
  all

type summary = {
  samples : int;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : float;
}

let summarize t cls =
  let h = histogram t cls in
  let samples = Stats.Histogram.count h in
  if samples = 0 then { samples = 0; p50_ns = 0.0; p90_ns = 0.0; p99_ns = 0.0; max_ns = 0.0 }
  else
    {
      samples;
      p50_ns = Stats.Histogram.percentile h 50.0;
      p90_ns = Stats.Histogram.percentile h 90.0;
      p99_ns = Stats.Histogram.percentile h 99.0;
      max_ns = Stats.Histogram.max_recorded h;
    }
