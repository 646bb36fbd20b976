(** MSIL — a miniature stand-in for the Swift Intermediate Language.

    §2.2: "The differentiation code transformation operates on the Swift
    Intermediate Language (SIL), an intermediate representation in static
    single assignment form." MSIL keeps the properties the AD transform
    relies on:

    - SSA with {e basic-block arguments} (as in SIL): each block declares
      parameters; branches pass values explicitly, so every block only
      references its own parameters and its own instruction results.
    - Structured terminators (unconditional branch, conditional branch,
      return), so control flow is an explicit CFG.
    - Calls to other MSIL functions by name, so the transform can recurse
      into callees and stop at registered custom derivatives.

    Scalars are the only value type (the AD system is generic over types at
    the [S4o_core] level; MSIL demonstrates the {e code transformation}, for
    which scalars suffice and keep the IR small).

    Value numbering inside a block: values [0 .. params-1] are the block
    parameters; value [params + i] is the result of instruction [i]. *)

type unary_op =
  | Neg
  | Sin
  | Cos
  | Exp
  | Log
  | Sqrt
  | Relu
  | Sigmoid
  | Tanh
  | Floor  (** Non-differentiable (zero derivative a.e.). *)

type binary_op = Add | Sub | Mul | Div | Max | Min

type cmp_op = Lt | Le | Gt | Ge | Eq

type inst =
  | Const of float
  | Unary of unary_op * int
  | Binary of binary_op * int * int
  | Cmp of cmp_op * int * int
      (** Produces 1.0 or 0.0; non-differentiable by construction. *)
  | Select of int * int * int
      (** [Select (c, a, b)]: [a] if [c <> 0.0] else [b]. Differentiable in
          [a] and [b], not in [c]. *)
  | Call of string * int array  (** Call another MSIL function. *)

type terminator =
  | Br of int * int array  (** Target block, arguments for its parameters. *)
  | Cond_br of int * int * int array * int * int array
      (** [Cond_br (c, bt, args_t, bf, args_f)]: branch on [c <> 0.0]. *)
  | Ret of int

type block = { params : int; insts : inst array; term : terminator }

type func = { name : string; n_args : int; blocks : block array }
(** Block 0 is the entry; its parameter count must equal [n_args]. *)

exception Invalid_ir of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_ir s)) fmt

(** Number of SSA values defined in a block. *)
let block_values b = b.params + Array.length b.insts

let inst_operands = function
  | Const _ -> []
  | Unary (_, a) -> [ a ]
  | Binary (_, a, b) | Cmp (_, a, b) -> [ a; b ]
  | Select (c, a, b) -> [ c; a; b ]
  | Call (_, args) -> Array.to_list args

(** Every structural error in [f], as [(block, site, message)] in program
    order; [site] is ["func"], ["entry"], ["inst i"] or ["term"]. Empty
    exactly when [f] is well formed: def-before-use, operand and terminator
    ranges, branch targets and argument arity, entry arity. *)
let violations (f : func) =
  let out = ref [] in
  let add block site fmt =
    Format.kasprintf (fun message -> out := (block, site, message) :: !out) fmt
  in
  let nblocks = Array.length f.blocks in
  if nblocks = 0 then add 0 "func" "no blocks"
  else begin
    if f.blocks.(0).params <> f.n_args then
      add 0 "entry" "entry block has %d params for %d args" f.blocks.(0).params
        f.n_args;
    Array.iteri
      (fun bi b ->
        Array.iteri
          (fun ii inst ->
            let defined = b.params + ii in
            let site () = Printf.sprintf "inst %d" ii in
            List.iter
              (fun v ->
                if v < 0 then add bi (site ()) "negative operand v%d" v
                else if v >= defined then
                  add bi (site ())
                    "operand v%d used before definition (only v0..v%d defined)"
                    v (defined - 1))
              (inst_operands inst))
          b.insts;
        let total = block_values b in
        let check_value v =
          if v < 0 || v >= total then
            add bi "term" "value v%d out of range (block defines %d)" v total
        in
        let check_target args target =
          if target < 0 || target >= nblocks then
            add bi "term" "branch to missing bb%d" target
          else begin
            let want = f.blocks.(target).params in
            if Array.length args <> want then
              add bi "term" "%d branch args for bb%d which takes %d params"
                (Array.length args) target want;
            Array.iter check_value args
          end
        in
        match b.term with
        | Ret v -> check_value v
        | Br (t, args) -> check_target args t
        | Cond_br (c, bt, at, bf, af) ->
            check_value c;
            check_target at bt;
            check_target af bf)
      f.blocks
  end;
  List.rev !out

(** Raises {!Invalid_ir} naming the first of {!violations}, prefixed by
    [stage] (the pass or transform that made or takes [f]) when given. *)
let validate ?stage (f : func) =
  match violations f with
  | [] -> ()
  | (block, site, message) :: _ ->
      fail "%s%s bb%d %s: %s"
        (match stage with Some s -> s ^ ": " | None -> "")
        f.name block site message

(** {1 Printing} *)

let unary_name = function
  | Neg -> "neg"
  | Sin -> "sin"
  | Cos -> "cos"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Relu -> "relu"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Floor -> "floor"

let binary_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Max -> "max"
  | Min -> "min"

let cmp_name = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"

let pp_args ppf args =
  Format.pp_print_string ppf
    (String.concat ", " (Array.to_list (Array.map (Format.sprintf "v%d") args)))

let pp_inst ppf (result, inst) =
  let p fmt = Format.fprintf ppf fmt in
  match inst with
  | Const c -> p "v%d = const %g" result c
  | Unary (op, a) -> p "v%d = %s v%d" result (unary_name op) a
  | Binary (op, a, b) -> p "v%d = %s v%d, v%d" result (binary_name op) a b
  | Cmp (op, a, b) -> p "v%d = cmp_%s v%d, v%d" result (cmp_name op) a b
  | Select (c, a, b) -> p "v%d = select v%d, v%d, v%d" result c a b
  | Call (name, args) -> p "v%d = call @%s(%a)" result name pp_args args

let pp_terminator ppf = function
  | Br (t, args) -> Format.fprintf ppf "br bb%d(%a)" t pp_args args
  | Cond_br (c, bt, at, bf, af) ->
      Format.fprintf ppf "cond_br v%d, bb%d(%a), bb%d(%a)" c bt pp_args at bf
        pp_args af
  | Ret v -> Format.fprintf ppf "ret v%d" v

let pp_func ppf f =
  Format.fprintf ppf "func @%s(%d args) {@." f.name f.n_args;
  Array.iteri
    (fun bi b ->
      let params =
        String.concat ", " (List.init b.params (Format.sprintf "v%d"))
      in
      Format.fprintf ppf "bb%d(%s):@." bi params;
      Array.iteri
        (fun ii inst -> Format.fprintf ppf "  %a@." pp_inst (b.params + ii, inst))
        b.insts;
      Format.fprintf ppf "  %a@." pp_terminator b.term)
    f.blocks;
  Format.fprintf ppf "}"

let to_string f = Format.asprintf "%a" pp_func f
