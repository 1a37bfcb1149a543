(* The benchmark's own hot loops must not allocate: the stream
   generator, the latency recorder and the span recorder, run over a
   no-op sink (no queue), untraced and traced, must stay under 0.01
   minor words per message.  Otherwise the harness's own minor GCs
   would show up as the queue's tail latency. *)

open E2e

let limit = 0.01

let words_per_message ~traced =
  let inp = Stream.generate ~seed:7 ~total_s:0.1 in
  let g = { Stream.late = Hist.create (); sent_sum = 0 } in
  let r = Stream.recorder ~seconds:1. in
  let start = Util.now () + 1_000_000 in
  r.m_start <- start;
  r.m_end <- start + 1_000_000_000;
  let dom = if traced then Some (Trace.mine ()) else None in
  let send = Stream.deliver r in
  let w0 = Gc.minor_words () in
  Stream.produce ?dom inp g ~start ~send;
  let w1 = Gc.minor_words () in
  if r.count <> inp.n || r.fifo_bad <> 0 then failwith "test_alloc: recorder lost or reordered messages";
  (w1 -. w0) /. float_of_int inp.n

let () =
  let failures =
    List.filter
      (fun traced ->
        let w = words_per_message ~traced in
        Printf.printf "stream generator + recorder%s: %.5f minor words/message (limit %.2f)\n"
          (if traced then " + spans" else "")
          w limit;
        w >= limit)
      [ false; true ]
  in
  if failures <> [] then exit 1
