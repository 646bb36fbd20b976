type modul = (string, Ir.func) Hashtbl.t

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let create_module () : modul = Hashtbl.create 16

let add m (f : Ir.func) = Hashtbl.replace m f.name f

let find m name = Hashtbl.find_opt m name

let functions m = Hashtbl.fold (fun _ f acc -> f :: acc) m []

let inst_counter = ref 0
let last_inst_count () = !inst_counter

let apply_unary op x =
  match (op : Ir.unary_op) with
  | Neg -> -.x
  | Sin -> Float.sin x
  | Cos -> Float.cos x
  | Exp -> Float.exp x
  | Log -> Float.log x
  | Sqrt -> Float.sqrt x
  | Relu -> if x > 0.0 then x else 0.0
  | Sigmoid -> 1.0 /. (1.0 +. Float.exp (-.x))
  | Tanh -> Float.tanh x
  | Floor -> Float.of_int (int_of_float (Float.floor x))

let apply_binary op x y =
  match (op : Ir.binary_op) with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Max -> Float.max x y
  | Min -> Float.min x y

let apply_cmp op x y =
  let b =
    match (op : Ir.cmp_op) with
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
    | Eq -> x = y
  in
  if b then 1.0 else 0.0

let eval_inst get (inst : Ir.inst) =
  match inst with
  | Const c -> c
  | Unary (op, a) -> apply_unary op (get a)
  | Binary (op, a, b) -> apply_binary op (get a) (get b)
  | Cmp (op, a, b) -> apply_cmp op (get a) (get b)
  | Select (c, a, b) -> if get c <> 0.0 then get a else get b
  | Call (name, _) -> invalid_arg ("Interp.eval_inst: call to @" ^ name)

let fold_inst get (inst : Ir.inst) =
  match inst with
  | Call _ -> None
  | Select (c, a, b) ->
      Option.bind (get c) (fun cv -> get (if cv <> 0.0 then a else b))
  | Const _ | Unary _ | Binary _ | Cmp _ ->
      if List.exists (fun v -> Option.is_none (get v)) (Ir.inst_operands inst)
      then None
      else Some (eval_inst (fun v -> Option.get (get v)) inst)

let rec eval_func m fuel (f : Ir.func) (args : float array) : float =
  if Array.length args <> f.n_args then
    fail "%s: got %d args, expected %d" f.name (Array.length args) f.n_args;
  let burn () =
    if !fuel <= 0 then fail "%s: out of fuel" f.name;
    decr fuel
  in
  let rec run_block bi (incoming : float array) =
    (* Entering a block costs fuel too, so a loop through blocks with no
       instructions still runs out. *)
    burn ();
    let b = f.blocks.(bi) in
    let env = Array.make (Ir.block_values b) 0.0 in
    Array.blit incoming 0 env 0 b.params;
    Array.iteri
      (fun ii inst ->
        burn ();
        incr inst_counter;
        let v =
          match (inst : Ir.inst) with
          | Call (name, cargs) -> begin
              match find m name with
              | None -> fail "%s: call to unknown function @%s" f.name name
              | Some callee ->
                  eval_func m fuel callee (Array.map (fun a -> env.(a)) cargs)
            end
          | Const _ | Unary _ | Binary _ | Cmp _ | Select _ ->
              eval_inst (Array.get env) inst
        in
        env.(b.params + ii) <- v)
      b.insts;
    match b.term with
    | Ret v -> env.(v)
    | Br (t, targs) -> run_block t (Array.map (fun a -> env.(a)) targs)
    | Cond_br (c, bt, at, bf, af) ->
        if env.(c) <> 0.0 then run_block bt (Array.map (fun a -> env.(a)) at)
        else run_block bf (Array.map (fun a -> env.(a)) af)
  in
  run_block 0 args

let eval ?(fuel = 1_000_000) m f args =
  inst_counter := 0;
  eval_func m (ref fuel) f args

let eval_name ?fuel m name args =
  match find m name with
  | None -> fail "unknown function @%s" name
  | Some f -> eval ?fuel m f args
