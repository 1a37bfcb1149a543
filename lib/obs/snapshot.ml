(* See snapshot.mli. *)

type segments = {
  allocated : int;
  reclaimed : int;
  recycled : int;
  wasted : int;
  pooled : int;
  live : int;
  cleanups : int;
  cap : int;
  cap_hits : int;
}

type handles = { ring : int; live : int; free_slots : int }

type t = {
  ops : Counters.t;
  segments : segments;
  handles : handles;
  patience : int;
  probe_enabled : bool;
}

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "paths:    %a@," Counters.pp t.ops;
  Format.fprintf ppf "events:   %a%s@," Counters.pp_events t.ops
    (if t.probe_enabled then "" else " (probe disabled: event tier not recorded)");
  Format.fprintf ppf
    "segments: %d allocated, %d reclaimed (%d cleanups), %d recycled, %d wasted, %d pooled, %d live@,"
    t.segments.allocated t.segments.reclaimed t.segments.cleanups t.segments.recycled
    t.segments.wasted t.segments.pooled t.segments.live;
  if t.segments.cap > 0 then
    Format.fprintf ppf "bounded:  cap %d segments (%d pressure hits)@," t.segments.cap
      t.segments.cap_hits;
  Format.fprintf ppf "handles:  %d ring slots (%d live, %d free); patience %d"
    t.handles.ring t.handles.live t.handles.free_slots t.patience;
  Format.fprintf ppf "@]"
