let constant_fold (f : Ir.func) =
  let blocks =
    Array.map
      (fun b ->
        let known = Array.make (Ir.block_values b) None in
        let insts =
          Array.mapi
            (fun ii inst ->
              let folded = Interp.fold_inst (Array.get known) inst in
              known.(b.Ir.params + ii) <- folded;
              match folded with
              | Some c -> Ir.Const c
              | None -> inst)
            b.Ir.insts
        in
        { b with Ir.insts })
      f.blocks
  in
  let f' = { f with Ir.blocks = blocks } in
  Ir.validate ~stage:"pass:constant_fold" f';
  f'

let dead_code_elim (f : Ir.func) =
  let blocks =
    Array.map
      (fun b ->
        let total = Ir.block_values b in
        let used = Array.make total false in
        let mark v = used.(v) <- true in
        (match b.Ir.term with
        | Ret v -> mark v
        | Br (_, args) -> Array.iter mark args
        | Cond_br (c, _, at, _, af) ->
            mark c;
            Array.iter mark at;
            Array.iter mark af);
        for ii = Array.length b.Ir.insts - 1 downto 0 do
          let vi = b.Ir.params + ii in
          if used.(vi) then
            List.iter mark (Ir.inst_operands b.Ir.insts.(ii))
        done;
        (* Renumber surviving values. Parameters always survive. *)
        let remap = Array.make total (-1) in
        for p = 0 to b.Ir.params - 1 do
          remap.(p) <- p
        done;
        let next = ref b.Ir.params in
        let survivors = ref [] in
        Array.iteri
          (fun ii inst ->
            let vi = b.Ir.params + ii in
            if used.(vi) then begin
              remap.(vi) <- !next;
              incr next;
              survivors := inst :: !survivors
            end)
          b.Ir.insts;
        let rewrite_var v =
          let v' = remap.(v) in
          assert (v' >= 0);
          v'
        in
        let rewrite_inst (inst : Ir.inst) : Ir.inst =
          match inst with
          | Const c -> Const c
          | Unary (op, a) -> Unary (op, rewrite_var a)
          | Binary (op, a, b2) -> Binary (op, rewrite_var a, rewrite_var b2)
          | Cmp (op, a, b2) -> Cmp (op, rewrite_var a, rewrite_var b2)
          | Select (c, a, b2) ->
              Select (rewrite_var c, rewrite_var a, rewrite_var b2)
          | Call (name, args) -> Call (name, Array.map rewrite_var args)
        in
        let rewrite_term (term : Ir.terminator) : Ir.terminator =
          match term with
          | Ret v -> Ret (rewrite_var v)
          | Br (t, args) -> Br (t, Array.map rewrite_var args)
          | Cond_br (c, bt, at, bf, af) ->
              Cond_br
                ( rewrite_var c,
                  bt,
                  Array.map rewrite_var at,
                  bf,
                  Array.map rewrite_var af )
        in
        {
          Ir.params = b.Ir.params;
          insts = Array.of_list (List.rev_map rewrite_inst !survivors);
          term = rewrite_term b.Ir.term;
        })
      f.blocks
  in
  let f' = { f with Ir.blocks = blocks } in
  Ir.validate ~stage:"pass:dead_code_elim" f';
  f'

let inst_count (f : Ir.func) =
  Array.fold_left (fun acc b -> acc + Array.length b.Ir.insts) 0 f.blocks

let simplify f =
  let rec go f budget =
    let f' = dead_code_elim (constant_fold f) in
    if budget = 0 || inst_count f' = inst_count f then f' else go f' (budget - 1)
  in
  go f 8
