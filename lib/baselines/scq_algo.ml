(* Nikolaev's Scalable Circular Queue (SCQ, arXiv:1908.04511) as a
   functor over atomic primitives, in the indirect ("scqd")
   configuration: two index rings plus a data plane.

   Each ring holds 2n cycle-tagged entries for a capacity of n.  An
   entry packs (cycle, isSafe, index) into one OCaml int:

     bits [0 .. o]   index   (o+1 bits; ⊥ = all-ones = 2n-1)
     bit  [o+1]      isSafe
     bits [o+2 ..]   cycle   (signed; init -1 so cycle 0 can claim)

   Enqueue FAAs the tail ticket and claims the slot iff its entry is
   from an older cycle, empty (⊥) and safe (or provably not ahead of
   head); dequeue FAAs head and consumes on a cycle match, otherwise
   stamps the slot (advance the empty marker / mark unsafe) and
   consults the threshold: 3n-1 attempts after the last successful
   enqueue before EMPTY is declared.  This is the paper's livelock
   defence — the threshold is reset by every enqueue, so dequeuers
   chasing a moving tail give up in bounded steps.

   The indirect configuration keeps the rings int-only so entries stay
   single-word CAS-able: [fq] starts full with the free indices
   0..n-1, [aq] starts empty; enqueue takes a free index from [fq],
   writes the payload into [data], publishes the index through [aq];
   dequeue reverses.  At most n indices circulate, so neither ring
   ever fills — queue-full shows up as [fq] running EMPTY.

   The paper's cache_remap (spreading consecutive tickets across
   lines) is omitted: OCaml atomics are boxed, so entry cells are
   already separate heap blocks and the remap would only permute
   pointers. *)

module Make (A : Primitives.Atomic_prims.S) = struct
  module Ring = struct
    type t = {
      order : int; (* capacity n = 2^order; the ring has 2n entries *)
      entries : int A.t array;
      head : int A.t;
      tail : int A.t;
      threshold : int A.t;
    }

    let idx_bits t = t.order + 1
    let n_entries t = 2 lsl t.order
    let bot t = n_entries t - 1 (* ⊥: all-ones in the index field *)
    let eindex t e = e land bot t
    let esafe t e = e land (1 lsl idx_bits t) <> 0
    let ecycle t e = e asr (idx_bits t + 1)

    let pack t ~cycle ~safe ~index =
      (cycle lsl (idx_bits t + 1)) lor ((if safe then 1 else 0) lsl idx_bits t) lor index

    let slot t ticket = ticket land (n_entries t - 1)
    let cycle_of t ticket = ticket asr idx_bits t
    let max_threshold t = 3 * (1 lsl t.order) - 1

    (* All-ones = (cycle -1, safe, ⊥): claimable by cycle-0 tickets. *)
    let unused = -1

    let make_empty order =
      {
        order;
        entries = Array.init (2 lsl order) (fun _ -> A.make unused);
        head = A.make_contended 0;
        tail = A.make_contended 0;
        threshold = A.make_contended (-1);
      }

    let make_full order =
      let n = 1 lsl order in
      let t =
        {
          order;
          entries =
            Array.init (2 * n) (fun i ->
                if i < n then
                  A.make ((0 lsl (order + 2)) lor (1 lsl (order + 1)) lor i)
                else A.make unused);
          head = A.make_contended 0;
          tail = A.make_contended n;
          threshold = A.make_contended (3 * n - 1);
        }
      in
      t

    (* Never-full enqueue: with at most n indices circulating between
       the two rings, some entry among the 2n is always claimable, so
       the ticket loop terminates without a FULL case.  Top-level
       mutual recursion over explicit parameters — a local [let rec]
       pair would box closures on every operation, against the §9
       allocation discipline (and the scq alloc-gate row). *)
    let rec enq_next t index =
      let ticket = A.fetch_and_add t.tail 1 in
      enq_claim t index ticket (slot t ticket)

    and enq_claim t index ticket j =
      let cell = t.entries.(j) in
      let e = A.get cell in
      let cyc = cycle_of t ticket in
      if ecycle t e < cyc && eindex t e = bot t && (esafe t e || A.get t.head <= ticket) then begin
        if A.compare_and_set cell e (pack t ~cycle:cyc ~safe:true ~index) then begin
          if A.get t.threshold <> max_threshold t then A.set t.threshold (max_threshold t)
        end
        else enq_claim t index ticket j (* entry moved under us: re-evaluate *)
      end
      else enq_next t index

    let enqueue t index = enq_next t index

    let rec catchup t tail head =
      if not (A.compare_and_set t.tail tail head) then begin
        let head = A.get t.head in
        let tail = A.get t.tail in
        if tail < head then catchup t tail head
      end

    (* Dequeue body, same top-level-recursion shape as the enqueue
       side (no per-call closures).  Returns a free/filled index, or
       -1 for EMPTY. *)
    let rec deq_attempt t =
      let ticket = A.fetch_and_add t.head 1 in
      deq_load t ticket (slot t ticket) (cycle_of t ticket)

    and deq_load t ticket j cyc =
      let cell = t.entries.(j) in
      let e = A.get cell in
      if ecycle t e = cyc then deq_consume t cell e
      else if ecycle t e < cyc then begin
        (* Stamp the stale entry: an empty slot has its cycle
           advanced so a straggling old-cycle enqueue cannot orphan
           a value here; an occupied one is marked unsafe so old-
           cycle enqueues keep away until head provably passed. *)
        let nw =
          if eindex t e = bot t then pack t ~cycle:cyc ~safe:(esafe t e) ~index:(bot t)
          else e land lnot (1 lsl idx_bits t)
        in
        if A.compare_and_set cell e nw then deq_empty_check t ticket
        else deq_load t ticket j cyc
      end
      else deq_empty_check t ticket

    and deq_consume t cell e =
      (* Atomic-OR of ⊥ into the index field, as a CAS loop; only
         an index consume can touch a current-cycle entry, and our
         FAA ticket is unique, so this effectively never retries. *)
      if A.compare_and_set cell e (e lor bot t) then eindex t e
      else deq_consume t cell (A.get cell)

    and deq_empty_check t ticket =
      let tail = A.get t.tail in
      if tail <= ticket + 1 then begin
        (* Head overtook tail: drag tail forward so enqueuers do
           not burn tickets on slots head already invalidated. *)
        catchup t tail (ticket + 1);
        ignore (A.fetch_and_add t.threshold (-1));
        -1
      end
      else if A.fetch_and_add t.threshold (-1) <= 0 then -1
      else deq_attempt t

    let dequeue t =
      if A.get t.threshold < 0 then -1 (* empty fast path: no FAA *)
      else deq_attempt t
  end

  type 'a t = {
    fq : Ring.t; (* free data indices; starts full with 0..n-1 *)
    aq : Ring.t; (* allocated (filled) indices; starts empty *)
    data : Obj.t A.t array; (* the payload plane, n slots *)
    capacity : int;
  }

  type 'a handle = unit

  (* Private block: never physically equal to a stored payload. *)
  let empty_w : Obj.t = Obj.repr (ref 0)

  let create ?(order = 12) () =
    if order < 1 || order > 20 then invalid_arg "Scq.create: order out of range";
    let n = 1 lsl order in
    {
      fq = Ring.make_full order;
      aq = Ring.make_empty order;
      data = Array.init n (fun _ -> A.make empty_w);
      capacity = n;
    }

  let capacity t = t.capacity
  let register _t = ()

  let enq_index t v i =
    A.set t.data.(i) (Obj.repr v);
    Ring.enqueue t.aq i

  (* Bounded-queue surface: reject instead of spinning when no free
     index exists (the SCQ analogue of the WF queue's [try_enqueue]). *)
  let try_enqueue t () v =
    match Ring.dequeue t.fq with
    | -1 -> false
    | i ->
      enq_index t v i;
      true

  (* Infallible enqueue for the harness: spin until a consumer frees
     an index.  [fq] EMPTY is the queue-full condition.  Top-level
     spin (a local [let rec] would box a closure per enqueue). *)
  let rec free_index (fq : Ring.t) =
    match Ring.dequeue fq with
    | -1 ->
      A.cpu_relax ();
      free_index fq
    | i -> i

  let enqueue t () v = enq_index t v (free_index t.fq)

  let dequeue_or t () default =
    match Ring.dequeue t.aq with
    | -1 -> default
    | i ->
      let w = A.get t.data.(i) in
      A.set t.data.(i) empty_w; (* GC hygiene before the index recirculates *)
      Ring.enqueue t.fq i;
      (Obj.obj w : 'a)

  let dequeue t () =
    match Ring.dequeue t.aq with
    | -1 -> None
    | i ->
      let w = A.get t.data.(i) in
      A.set t.data.(i) empty_w;
      Ring.enqueue t.fq i;
      Some (Obj.obj w : 'a)

  (* Occupancy gauge from the aq tickets; approximate under races. *)
  let approx_length t =
    let len = A.get t.aq.Ring.tail - A.get t.aq.Ring.head in
    if len < 0 then 0 else if len > t.capacity then t.capacity else len
end
