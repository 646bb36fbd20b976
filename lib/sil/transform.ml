type derivative = {
  vjp : float array -> float * (float -> float array);
  jvp : float array -> float * (float array -> float);
}

type ctx = {
  modul : Interp.modul;
  memo : (string, derivative) Hashtbl.t;
  custom : (string, unit) Hashtbl.t;
  mutable diags : Diagnostics.diagnostic list;
  mutable synthesized : int;
}

exception Transform_error of string * Diagnostics.diagnostic list

let fail msg diags = raise (Transform_error (msg, diags))

let create_ctx modul =
  { modul; memo = Hashtbl.create 16; custom = Hashtbl.create 16; diags = []; synthesized = 0 }

let register_custom ctx name d =
  Hashtbl.replace ctx.custom name ();
  Hashtbl.replace ctx.memo name d

let diagnostics ctx = List.rev ctx.diags
let synthesized_count ctx = ctx.synthesized

(* One pullback record per executed basic block (the paper's statically-typed
   per-block records, here a uniform runtime representation). *)
type record = {
  block : int;
  env : float array;
  (* call result value id, operand value ids, callee pullback *)
  mutable call_pullbacks : (int * int array * (float -> float array)) list;
  (* same, but callee differentials, for the JVP *)
  mutable call_differentials : (int * int array * (float array -> float)) list;
  mutable taken : int array option;  (* branch args passed to the successor *)
}

let unary_partial (op : Ir.unary_op) x result =
  match op with
  | Neg -> -1.0
  | Sin -> Float.cos x
  | Cos -> -.Float.sin x
  | Exp -> result
  | Log -> 1.0 /. x
  | Sqrt -> 1.0 /. (2.0 *. result)
  | Relu -> if x > 0.0 then 1.0 else 0.0
  | Sigmoid -> result *. (1.0 -. result)
  | Tanh -> 1.0 -. (result *. result)
  | Floor -> 0.0

let max_records = 1_000_000

(* Shared forward sweep. [want_vjp]/[want_jvp] select which callee derivative
   closures to record. Returns the return value and the executed trace. *)
let run_forward ~callee_derivs ~want_vjp ~want_jvp (f : Ir.func) args =
  if Array.length args <> f.n_args then
    invalid_arg (Format.sprintf "@%s derivative: arity mismatch" f.name);
  let records = ref [] in
  let n_records = ref 0 in
  let rec run bi incoming =
    if !n_records >= max_records then
      invalid_arg (Format.sprintf "@%s derivative: trace exceeds %d blocks" f.name max_records);
    incr n_records;
    let b = f.blocks.(bi) in
    let env = Array.make (Ir.block_values b) 0.0 in
    Array.blit incoming 0 env 0 b.params;
    let r =
      { block = bi; env; call_pullbacks = []; call_differentials = []; taken = None }
    in
    Array.iteri
      (fun ii inst ->
        let vi = b.params + ii in
        let v =
          match (inst : Ir.inst) with
          | Const _ | Unary _ | Binary _ | Cmp _ | Select _ ->
              Interp.eval_inst (Array.get env) inst
          | Call (name, cargs) ->
              let d : derivative = Hashtbl.find callee_derivs name in
              let actuals = Array.map (fun a -> env.(a)) cargs in
              if want_vjp then begin
                let value, pb = d.vjp actuals in
                r.call_pullbacks <- (vi, cargs, pb) :: r.call_pullbacks;
                if want_jvp then begin
                  let _, df = d.jvp actuals in
                  r.call_differentials <- (vi, cargs, df) :: r.call_differentials
                end;
                value
              end
              else begin
                let value, df = d.jvp actuals in
                r.call_differentials <- (vi, cargs, df) :: r.call_differentials;
                value
              end
        in
        env.(vi) <- v)
      b.insts;
    records := r :: !records;
    match b.term with
    | Ret v -> (v, env.(v))
    | Br (t, targs) ->
        r.taken <- Some targs;
        run t (Array.map (fun a -> env.(a)) targs)
    | Cond_br (c, bt, at, bf, af) ->
        let t, targs = if env.(c) <> 0.0 then (bt, at) else (bf, af) in
        r.taken <- Some targs;
        run t (Array.map (fun a -> env.(a)) targs)
  in
  let ret_var, value = run 0 args in
  (ret_var, value, Array.of_list (List.rev !records))

(* Backward sweep over the recorded trace. *)
let run_backward (f : Ir.func) (analysis : Activity.t) records ret_var seed =
  let n = Array.length records in
  let adjs = Array.map (fun r -> Array.make (Array.length r.env) 0.0) records in
  adjs.(n - 1).(ret_var) <- seed;
  for k = n - 1 downto 0 do
    let r = records.(k) in
    let adj = adjs.(k) in
    let b = f.blocks.(r.block) in
    let env = r.env in
    for ii = Array.length b.insts - 1 downto 0 do
      let vi = b.params + ii in
      let a = adj.(vi) in
      if a <> 0.0 && analysis.Activity.active.(r.block).(vi) then
        match b.insts.(ii) with
        | Const _ | Cmp _ -> ()
        | Unary (op, x) ->
            adj.(x) <- adj.(x) +. (a *. unary_partial op env.(x) env.(vi))
        | Binary (op, x, y) -> begin
            match op with
            | Add ->
                adj.(x) <- adj.(x) +. a;
                adj.(y) <- adj.(y) +. a
            | Sub ->
                adj.(x) <- adj.(x) +. a;
                adj.(y) <- adj.(y) -. a
            | Mul ->
                adj.(x) <- adj.(x) +. (a *. env.(y));
                adj.(y) <- adj.(y) +. (a *. env.(x))
            | Div ->
                adj.(x) <- adj.(x) +. (a /. env.(y));
                adj.(y) <- adj.(y) -. (a *. env.(x) /. (env.(y) *. env.(y)))
            | Max -> if env.(x) >= env.(y) then adj.(x) <- adj.(x) +. a else adj.(y) <- adj.(y) +. a
            | Min -> if env.(x) <= env.(y) then adj.(x) <- adj.(x) +. a else adj.(y) <- adj.(y) +. a
          end
        | Select (c, x, y) ->
            if env.(c) <> 0.0 then adj.(x) <- adj.(x) +. a
            else adj.(y) <- adj.(y) +. a
        | Call (_, cargs) ->
            let _, _, pb =
              List.find (fun (v, _, _) -> v = vi) r.call_pullbacks
            in
            let grads = pb a in
            Array.iteri
              (fun j arg -> adj.(arg) <- adj.(arg) +. grads.(j))
              cargs
    done;
    (* Adjoints of this block's parameters flow back through the branch that
       got us here. *)
    if k > 0 then begin
      let pred = records.(k - 1) in
      let pargs =
        match pred.taken with
        | Some a -> a
        | None -> assert false
      in
      let padj = adjs.(k - 1) in
      for j = 0 to b.params - 1 do
        padj.(pargs.(j)) <- padj.(pargs.(j)) +. adj.(j)
      done
    end
  done;
  Array.init f.n_args (fun i -> adjs.(0).(i))

(* Forward tangent propagation over the recorded trace. *)
let run_tangent (f : Ir.func) records ret_var direction =
  let n = Array.length records in
  let tans = Array.map (fun r -> Array.make (Array.length r.env) 0.0) records in
  Array.blit direction 0 tans.(0) 0 f.n_args;
  for k = 0 to n - 1 do
    let r = records.(k) in
    let tan = tans.(k) in
    let env = r.env in
    let b = f.blocks.(r.block) in
    Array.iteri
      (fun ii inst ->
        let vi = b.params + ii in
        let d =
          match (inst : Ir.inst) with
          | Const _ | Cmp _ -> 0.0
          | Unary (op, x) -> tan.(x) *. unary_partial op env.(x) env.(vi)
          | Binary (op, x, y) -> begin
              match op with
              | Add -> tan.(x) +. tan.(y)
              | Sub -> tan.(x) -. tan.(y)
              | Mul -> (tan.(x) *. env.(y)) +. (env.(x) *. tan.(y))
              | Div ->
                  ((tan.(x) *. env.(y)) -. (env.(x) *. tan.(y)))
                  /. (env.(y) *. env.(y))
              | Max -> if env.(x) >= env.(y) then tan.(x) else tan.(y)
              | Min -> if env.(x) <= env.(y) then tan.(x) else tan.(y)
            end
          | Select (c, x, y) -> if env.(c) <> 0.0 then tan.(x) else tan.(y)
          | Call (_, cargs) ->
              let _, _, df =
                List.find (fun (v, _, _) -> v = vi) r.call_differentials
              in
              df (Array.map (fun a -> tan.(a)) cargs)
        in
        tan.(vi) <- d)
      b.insts;
    if k < n - 1 then begin
      let targs = match r.taken with Some a -> a | None -> assert false in
      let next_tan = tans.(k + 1) in
      Array.iteri (fun j a -> next_tan.(j) <- tan.(a)) targs
    end
  done;
  tans.(n - 1).(ret_var)

let rec derivative_of ctx name =
  match Hashtbl.find_opt ctx.memo name with
  | Some d -> d
  | None -> begin
      match Interp.find ctx.modul name with
      | None -> fail (Format.sprintf "no function or custom derivative for @%s" name) []
      | Some f ->
          (* Break recursion: install a proxy that indirects through a cell
             filled once synthesis completes. Recursive calls in the body go
             through the proxy at runtime, after the cell is set. *)
          let cell = ref None in
          let deref () =
            match !cell with
            | Some d -> d
            | None ->
                fail
                  (Format.sprintf "@%s: derivative used during its own synthesis" name)
                  []
          in
          let proxy =
            {
              vjp = (fun args -> (deref ()).vjp args);
              jvp = (fun args -> (deref ()).jvp args);
            }
          in
          Hashtbl.add ctx.memo name proxy;
          let d = synthesize ctx f in
          cell := Some d;
          Hashtbl.replace ctx.memo name d;
          d
    end

and synthesize ctx (f : Ir.func) =
  Ir.validate ~stage:"transform" f;
  let has_derivative callee =
    Hashtbl.mem ctx.memo callee || Interp.find ctx.modul callee <> None
  in
  let diags = Diagnostics.check ~has_derivative f in
  ctx.diags <- List.rev_append diags ctx.diags;
  (match Diagnostics.errors diags with
  | [] -> ()
  | errs ->
      fail (Format.sprintf "@%s: differentiability errors" f.name) errs);
  (* Resolve every callee derivative at transform time ("recursively
     transforms the callees"). *)
  let callee_derivs = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      Array.iter
        (fun inst ->
          match (inst : Ir.inst) with
          | Call (callee, _) when not (Hashtbl.mem callee_derivs callee) ->
              Hashtbl.add callee_derivs callee (derivative_of ctx callee)
          | Const _ | Unary _ | Binary _ | Cmp _ | Select _ | Call _ -> ())
        b.Ir.insts)
    f.blocks;
  let analysis = Activity.analyze f in
  ctx.synthesized <- ctx.synthesized + 1;
  let vjp args =
    let ret_var, value, records =
      run_forward ~callee_derivs ~want_vjp:true ~want_jvp:false f args
    in
    (value, fun seed -> run_backward f analysis records ret_var seed)
  in
  let jvp args =
    let ret_var, value, records =
      run_forward ~callee_derivs ~want_vjp:false ~want_jvp:true f args
    in
    (value, fun direction -> run_tangent f records ret_var direction)
  in
  { vjp; jvp }

let gradient ctx name args =
  let d = derivative_of ctx name in
  let _, pullback = d.vjp args in
  pullback 1.0

let value_with_gradient ctx name args =
  let d = derivative_of ctx name in
  let v, pullback = d.vjp args in
  (v, pullback 1.0)

let derivative_along ctx name ~at ~along =
  let d = derivative_of ctx name in
  let _, differential = d.jvp at in
  differential along
