(** Minimal JSON emitter for [repro stats --json] (no external
    dependency).

    Floats are emitted in shortest-round-trip decimal form, with a
    trailing [.0] on integral values so a reader can tell them from
    {!Int}.  Non-finite floats encode as [null] (JSON has no
    NaN/Infinity literals). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (2-space indent), trailing newline. *)

val save : t -> path:string -> unit
