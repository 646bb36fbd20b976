(** MSIL IR verifier: reports every {!S4o_sil.Ir.violations} entry as an
    error (where {!S4o_sil.Ir.validate}, which the passes, the AD transform
    and the builder call on what they make, raises on the first) and
    {!S4o_sil.Dataflow}-powered lints. *)

open S4o_sil

type severity = Error | Warning

type violation = {
  severity : severity;
  func : string;
  block : int;
  site : string;
  message : string;
}

val errors : violation list -> violation list
val warnings : violation list -> violation list
val pp_violation : Format.formatter -> violation -> unit

(** [func f] verifies [f]. Errors: def-before-use, operand and terminator
    ranges, branch-argument arity, entry arity. When the function is
    structurally clean, adds warnings: unreachable blocks, dead instruction
    results, single-definition block parameters, constant branch
    conditions. *)
val func : Ir.func -> violation list
