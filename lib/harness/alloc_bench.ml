(* See alloc_bench.mli. *)

type row = {
  aname : string;
  pairs : int;
  via_dequeue_or : bool;
  words_per_enqueue : float;
  words_per_dequeue : float;
  words_per_op : float;
}

let measure ?(warmup_pairs = 60_000) ?(pairs = 20_000) ?(via_dequeue_or = false)
    (factory : Queues.factory) =
  let instance = factory.Queues.make () in
  let ops = instance.Queues.register () in
  (* drive the queue into its recycling steady state: enough pairs to
     cross several cleanup thresholds (max_garbage segments each) and
     fill the segment pool, so the measured window is served from the
     pool, not from fresh segment allocation *)
  if via_dequeue_or then
    for i = 0 to warmup_pairs - 1 do
      ops.Queues.enqueue i;
      ignore (ops.Queues.dequeue_or min_int)
    done
  else
    for i = 0 to warmup_pairs - 1 do
      ops.Queues.enqueue i;
      ignore (ops.Queues.dequeue ())
    done;
  let acc = Obs.Alloc_probe.create () in
  (* per-op minor-words windows: the accumulator update (and the float
     boxing of the delta argument) happens between windows, so the
     meter never counts itself *)
  if via_dequeue_or then
    for i = 0 to pairs - 1 do
      let w0 = Gc.minor_words () in
      ops.Queues.enqueue i;
      Obs.Alloc_probe.record acc Obs.Alloc_probe.Enqueue (Gc.minor_words () -. w0);
      let w0 = Gc.minor_words () in
      ignore (ops.Queues.dequeue_or min_int);
      Obs.Alloc_probe.record acc Obs.Alloc_probe.Dequeue (Gc.minor_words () -. w0)
    done
  else
    for i = 0 to pairs - 1 do
      let w0 = Gc.minor_words () in
      ops.Queues.enqueue i;
      Obs.Alloc_probe.record acc Obs.Alloc_probe.Enqueue (Gc.minor_words () -. w0);
      let w0 = Gc.minor_words () in
      ignore (ops.Queues.dequeue ());
      Obs.Alloc_probe.record acc Obs.Alloc_probe.Dequeue (Gc.minor_words () -. w0)
    done;
  ops.Queues.release ();
  {
    aname = factory.Queues.name;
    pairs;
    via_dequeue_or;
    words_per_enqueue = Obs.Alloc_probe.words_per_enqueue acc;
    words_per_dequeue = Obs.Alloc_probe.words_per_dequeue acc;
    words_per_op = Obs.Alloc_probe.words_per_op acc;
  }

let default_rows ?warmup_pairs ?pairs () =
  [
    (* the generic option API: its words/op is the Some box, by design *)
    measure ?warmup_pairs ?pairs (Queues.wf ~patience:10 ());
    (* the same build through dequeue_or: the zero the alloc test pins *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true
      (Queues.wf ~patience:10 ~name:"wf-10-deq-or" ());
    (* instrumented build: the event tier must add no words *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true
      (Queues.wf_obs ~patience:10 ~name:"wf-10-obs-deq-or" ());
    (* bounded-memory mode: the cap bookkeeping (admission reads, the
       budget FAA, pool recycling) must add no words per operation *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true
      (Queues.wf_bounded ~name:"wf-bounded-deq-or" ());
    (* the SCQ ring baseline: a fixed array, so the steady state has
       nothing to allocate at all *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true (Queues.scq ~name:"scq-deq-or" ());
  ]
