(** Standard compiler passes over MSIL. §2.2 notes that because AD is a
    compiler pass on the IR, its output "is fully amenable to the same set of
    compile-time optimizations as regular Swift code" — these passes are the
    demonstration: they run equally on hand-written and on AD-related code.

    All passes are purely functional: they return a new function. MSIL calls
    are pure, so unused calls are dead code. Each pass validates its output
    with {!Ir.validate}, raising {!Ir.Invalid_ir} with a stage such as
    ["pass:constant_fold"]; {!simplify}'s result is its last
    {!dead_code_elim}'s. *)

(** Fold instructions whose operands are all constants (including selects
    with a constant condition). Comparisons fold too. Calls never fold. *)
val constant_fold : Ir.func -> Ir.func

(** Remove instructions whose results are unused by later instructions or the
    block terminator. Values are block-local in MSIL, so liveness is local.
    Renumbers values. *)
val dead_code_elim : Ir.func -> Ir.func

(** [simplify f] runs constant folding then DCE to a fixed point (bounded). *)
val simplify : Ir.func -> Ir.func

(** Total instruction count, for before/after comparisons. *)
val inst_count : Ir.func -> int
