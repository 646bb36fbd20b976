type t = {
  varied : bool array array;
  useful : bool array array;
  active : bool array array;
}

(* Operand positions of [inst] through which derivatives flow. *)
let differentiable_operands (inst : Ir.inst) =
  match inst with
  | Const _ | Cmp _ -> []
  | Unary (Floor, _) -> []
  | Unary (_, a) -> [ a ]
  | Binary (_, a, b) -> [ a; b ]
  | Select (_, a, b) -> [ a; b ]
  | Call (_, args) -> Array.to_list args

let analyze ?wrt (f : Ir.func) =
  let wrt = match wrt with None -> List.init f.n_args Fun.id | Some l -> l in
  List.iter
    (fun i ->
      if i < 0 || i >= f.n_args then Ir.fail "analyze: wrt arg %d out of range" i)
    wrt;
  let varied =
    Dataflow.Bools.forward f
      ~entry:(fun p -> List.mem p wrt)
      ~transfer:(fun ~bi:_ ~ii:_ inst get ->
        List.exists get (differentiable_operands inst))
  in
  let useful =
    Dataflow.Bools.backward f
      ~term_seed:(fun ~bi:_ term ->
        match (term : Ir.terminator) with
        | Ret v -> [ (v, true) ]
        | Br _ | Cond_br _ -> [])
      ~transfer:(fun ~bi:_ ~ii:_ inst ~result ->
        if result then List.map (fun a -> (a, true)) (differentiable_operands inst)
        else [])
  in
  let active =
    Array.mapi
      (fun bi v -> Array.mapi (fun vi x -> x && useful.(bi).(vi)) v)
      varied
  in
  { varied; useful; active }

let return_is_varied (f : Ir.func) t =
  let found = ref false in
  Array.iteri
    (fun bi b ->
      match b.Ir.term with
      | Ir.Ret v -> if t.varied.(bi).(v) then found := true
      | Ir.Br _ | Ir.Cond_br _ -> ())
    f.blocks;
  !found

let active_inst_count (f : Ir.func) t =
  let count = ref 0 in
  Array.iteri
    (fun bi b ->
      for ii = 0 to Array.length b.Ir.insts - 1 do
        if t.active.(bi).(b.Ir.params + ii) then incr count
      done)
    f.blocks;
  !count
