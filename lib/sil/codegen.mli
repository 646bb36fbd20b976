(** Derivative {e code generation}: emit the JVP of an MSIL function as
    another MSIL function.

    {!Transform} synthesizes derivatives as host closures; this module goes
    one step further in the paper's direction — "the code transformation
    produces the JVP and VJP" as IR, so the generated derivative is "fully
    amenable to the same set of compile-time optimizations as regular Swift
    code" (§2.2). The generated function is ordinary MSIL: {!Passes} can
    simplify it, the interpreter can run it, and — because it is plain IR,
    not closure-heavy output — {!Transform} can differentiate it {e again},
    lifting for straight-line code the "cannot transform its own output"
    limitation of §2.3 (see the second-derivative tests).

    Scope: single-basic-block (straight-line) functions. Control flow would
    require the trace-record machinery that {!Transform} already provides at
    runtime; code-generating those records is exactly the open problem the
    paper describes, so multi-block input raises {!Unsupported}. Calls are
    supported by recursively generating each callee's JVP. *)

exception Unsupported of string

(** [jvp_name f] is the name the generated JVP carries ("<f>_jvp"). *)
val jvp_name : string -> string

(** [generate_jvp m f] builds the JVP of [f]: a function of [2n] arguments
    ([x1..xn, dx1..dxn]) returning the directional derivative. Generated
    callee JVPs are added to [m] (memoized by name), as is the result.
    Raises {!Unsupported} on control flow or recursive call cycles. Like
    every generated function, the result is validated by {!Builder.finish},
    whose {!Ir.Invalid_ir} names it. *)
val generate_jvp : Interp.modul -> Ir.func -> Ir.func

(** Gradient via [n] evaluations of the generated JVP (one per basis
    direction). *)
val gradient_via_codegen :
  Interp.modul -> Ir.func -> float array -> float array

(** [generate_vjp m f ~wrt] emits a function of [n+1] arguments
    ([x1..xn, seed]) returning the [wrt]-th component of the pullback — the
    reverse-mode column of Figure 3, as generated code. For straight-line
    code the adjoint data flow is static, so no pullback records are needed:
    the backward sweep unrolls into plain instructions. Same restrictions as
    {!generate_jvp}. *)
val generate_vjp : Interp.modul -> Ir.func -> wrt:int -> Ir.func

(** Gradient via the generated VJP functions (seed 1.0), one per argument. *)
val gradient_via_vjp_codegen :
  Interp.modul -> Ir.func -> float array -> float array
