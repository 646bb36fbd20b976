(** MSIL IR verifier: reports every {!S4o_sil.Ir.violations} entry as an
    error (where {!S4o_sil.Ir.validate} raises on the first) and
    (optionally) {!S4o_sil.Dataflow}-powered lints. Checked mode runs
    {!run} after every optimization pass, AD synthesis, and derivative code
    generation. *)

open S4o_sil

type severity = Error | Warning

type violation = {
  severity : severity;
  func : string;
  block : int;
  site : string;
  message : string;
}

exception Verify_error of string

val errors : violation list -> violation list
val warnings : violation list -> violation list
val pp_violation : Format.formatter -> violation -> unit

(** [func f] verifies [f]. Errors: def-before-use, operand and terminator
    ranges, branch-argument arity, entry arity. When [lint] (default) and
    the function is structurally clean, adds warnings: unreachable blocks,
    dead instruction results, single-definition block parameters, constant
    branch conditions. *)
val func : ?lint:bool -> Ir.func -> violation list

(** [run ~stage f] raises {!Verify_error} naming [stage] and every error if
    [f] is malformed; lints are not computed. The checked-mode hook body. *)
val run : stage:string -> Ir.func -> unit
