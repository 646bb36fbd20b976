(** Derivative synthesis (§2.2): the compile-time code transformation that
    turns an MSIL function into its JVP and VJP derivative functions.

    The transform runs once per function ("compile time"): it performs
    activity analysis, differentiability checking, and resolves derivatives
    for every callee — recursively transforming callees and terminating the
    recursion at functions with a registered custom derivative (the
    [@derivative(of:)] base case). The result is a {!derivative} whose
    closures execute without re-analyzing the IR.

    Control flow follows the paper's design: the VJP's forward sweep records,
    per executed basic block, a {e pullback record} holding that block's
    intermediate values, any callee pullbacks, and the branch taken. The
    records form a linear trace of the control-flow path; the backward sweep
    consumes them in reverse, transferring adjoints from block parameters
    back through the corresponding branch arguments. *)

type derivative = {
  vjp : float array -> float * (float -> float array);
      (** Reverse mode: value and pullback (output cotangent → argument
          cotangents). The pullback may be called repeatedly. *)
  jvp : float array -> float * (float array -> float);
      (** Forward mode: value and differential (argument tangents → output
          tangent). *)
}

type ctx

exception Transform_error of string * Diagnostics.diagnostic list

val create_ctx : Interp.modul -> ctx

(** Register a custom derivative for [name] — the transform will not recurse
    into it even if the module holds a body for it. *)
val register_custom : ctx -> string -> derivative -> unit

(** Diagnostics produced while synthesizing (warnings are retained; errors
    raise {!Transform_error}). *)
val diagnostics : ctx -> Diagnostics.diagnostic list

(** Number of functions synthesized so far (excludes custom registrations). *)
val synthesized_count : ctx -> int

(** [derivative_of ctx name] synthesizes (or returns the memoized) derivative
    of the named function. Each function it differentiates is validated
    first ({!Ir.validate}, stage ["transform"]). *)
val derivative_of : ctx -> string -> derivative

(** Convenience operators mirroring Figure 2. *)
val gradient : ctx -> string -> float array -> float array

val value_with_gradient : ctx -> string -> float array -> float * float array

(** Forward-mode directional derivative. *)
val derivative_along : ctx -> string -> at:float array -> along:float array -> float
