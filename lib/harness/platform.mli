(** Table 1: the experimental-platform inventory.

    The paper's table lists the four evaluation machines; we print
    those rows verbatim for reference and add a row describing the
    host this reproduction actually runs on (parsed from
    /proc/cpuinfo where available). *)

type row = {
  processor : string;
  clock_ghz : float;
  processors : int; (* sockets *)
  cores : int;
  hw_threads : int;
  cc_protocol : string;
  native_faa : bool;
}

val paper_rows : row list
(** Haswell, Xeon Phi, Magny-Cours, Power7 — as printed in Table 1. *)

val host : unit -> row
(** Best-effort description of this machine.  Fields that cannot be
    determined are filled with conservative defaults. *)
