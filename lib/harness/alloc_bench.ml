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

(* The batch round trip through the caller-buffer API: one
   [enq_batch] of [batch] ints, one [deq_batch_into] refilling the
   same buffer.  Deltas are divided by [batch] before recording, so
   the row reads in the same words-per-operation unit as the others.
   Runs on the int production queue directly — the point of the API
   is that the whole round trip, batching included, allocates
   nothing. *)
let measure_batch_into ?(warmup_pairs = 60_000) ?(pairs = 20_000) ?(batch = 64) () =
  let q = Wfq.Wfqueue_int.create ~patience:10 () in
  let h = Wfq.Wfqueue_int.register q in
  let buf = Array.init batch (fun i -> i) in
  let rounds = max 1 (warmup_pairs / batch) in
  for _ = 1 to rounds do
    Wfq.Wfqueue_int.enq_batch q h buf;
    ignore (Wfq.Wfqueue_int.deq_batch_into q h buf ~default:min_int)
  done;
  let acc = Obs.Alloc_probe.create () in
  let fbatch = float_of_int batch in
  let rounds = max 1 (pairs / batch) in
  for _ = 1 to rounds do
    let w0 = Gc.minor_words () in
    Wfq.Wfqueue_int.enq_batch q h buf;
    let w1 = Gc.minor_words () in
    for _ = 1 to batch do
      Obs.Alloc_probe.record acc Obs.Alloc_probe.Enqueue ((w1 -. w0) /. fbatch)
    done;
    let w0 = Gc.minor_words () in
    let n = Wfq.Wfqueue_int.deq_batch_into q h buf ~default:min_int in
    let w1 = Gc.minor_words () in
    for _ = 1 to batch do
      Obs.Alloc_probe.record acc Obs.Alloc_probe.Dequeue ((w1 -. w0) /. fbatch)
    done;
    (* the batch dequeue returns everything the batch enqueue put in,
       so the buffer stays full for the next round *)
    if n < batch then Array.fill buf n (batch - n) 0
  done;
  Wfq.Wfqueue_int.retire q h;
  {
    aname = Printf.sprintf "wf-10-deq-batch-into-%d" batch;
    pairs = rounds * batch;
    via_dequeue_or = true;
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
    (* the int facade end to end *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true (Queues.wf_int ~patience:10 ());
    (* the caller-buffer batch API: zero words for the whole round trip *)
    measure_batch_into ?warmup_pairs ?pairs ();
    (* bounded-memory mode: the cap bookkeeping (admission reads, the
       budget FAA, pool recycling) must add no words per operation *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true
      (Queues.wf_bounded ~name:"wf-bounded-deq-or" ());
    (* the SCQ ring baseline: a fixed array, so the steady state has
       nothing to allocate at all *)
    measure ?warmup_pairs ?pairs ~via_dequeue_or:true (Queues.scq ~name:"scq-deq-or" ());
  ]
