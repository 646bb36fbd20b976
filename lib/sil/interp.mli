(** A reference interpreter for MSIL. Runs functions against a module
    (name → function environment), with a fuel bound so mis-built loops fail
    deterministically instead of hanging tests. *)

type modul

exception Runtime_error of string

val create_module : unit -> modul

(** [add m f] registers [f] under [f.name]; replaces any previous binding. *)
val add : modul -> Ir.func -> unit

val find : modul -> string -> Ir.func option

val functions : modul -> Ir.func list

(** [eval m f args] executes [f]. [fuel] bounds the number of executed
    instructions plus entered blocks (default 1_000_000). Raises
    {!Runtime_error} on arity mismatch, unknown callee, or fuel
    exhaustion. *)
val eval : ?fuel:int -> modul -> Ir.func -> float array -> float

val eval_name : ?fuel:int -> modul -> string -> float array -> float

(** Instructions executed by the most recent [eval] (including callees) —
    used by tests asserting the efficient-gradient property of the
    synthesized derivative code. *)
val last_inst_count : unit -> int

(** {1 Evaluating one instruction}

    The only evaluator of a non-call instruction: the interpreter, the AD
    transform's forward sweep, constant folding and constant propagation
    all go through these two, so they agree exactly on primal values. *)

(** [eval_inst get inst] is the value of [inst] when operand [v] has value
    [get v]. Raises [Invalid_argument] on [Call], whose evaluation needs a
    module. *)
val eval_inst : (int -> float) -> Ir.inst -> float

(** [fold_inst get inst] is the value of [inst] when operand [v] is known
    to be [c] exactly when [get v = Some c]. [None] for [Call] and for an
    instruction that needs an unknown operand; a [Select] with a known
    condition needs only the operand it picks. *)
val fold_inst : (int -> float option) -> Ir.inst -> float option
