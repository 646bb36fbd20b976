exception Unsupported of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let jvp_name name = name ^ "_jvp"

(* Generation walks the single block, emitting for each original value both
   its primal recomputation and its tangent. [primal] and [tangent] map
   original value ids to value ids in the generated function. *)
let rec generate_jvp m (f : Ir.func) : Ir.func =
  match Interp.find m (jvp_name f.Ir.name) with
  | Some existing -> existing
  | None ->
      if Array.length f.Ir.blocks <> 1 then
        fail "@%s: JVP code generation supports straight-line functions only \
              (%d blocks)"
          f.Ir.name
          (Array.length f.Ir.blocks);
      let block = f.Ir.blocks.(0) in
      let n = f.Ir.n_args in
      let b = Builder.create ~name:(jvp_name f.Ir.name) ~n_args:(2 * n) in
      let total = Ir.block_values block in
      let primal = Array.make total (-1) in
      let tangent = Array.make total (-1) in
      for i = 0 to n - 1 do
        primal.(i) <- i;
        tangent.(i) <- n + i
      done;
      (* Generate callee JVPs first; a cycle (direct or mutual recursion in
         straight-line code) cannot terminate at runtime either, so reject
         it during generation. *)
      let in_progress = Hashtbl.create 4 in
      let callee_jvp name =
        if Hashtbl.mem in_progress name then
          fail "@%s: recursive call cycle through @%s" f.Ir.name name;
        match Interp.find m (jvp_name name) with
        | Some _ -> ()
        | None -> begin
            match Interp.find m name with
            | None -> fail "@%s: unknown callee @%s" f.Ir.name name
            | Some callee ->
                Hashtbl.add in_progress name ();
                let generated = generate_jvp m callee in
                Hashtbl.remove in_progress name;
                ignore generated
          end
      in
      Array.iteri
        (fun ii inst ->
          let v = block.Ir.params + ii in
          let zero () = Builder.const b 0.0 in
          let one () = Builder.const b 1.0 in
          let two () = Builder.const b 2.0 in
          let p, t =
            match (inst : Ir.inst) with
            | Const c -> (Builder.const b c, zero ())
            | Unary (op, x) -> begin
                let px = primal.(x) and tx = tangent.(x) in
                let p = Builder.unary b op px in
                let t =
                  match op with
                  | Ir.Neg -> Builder.unary b Ir.Neg tx
                  | Ir.Sin ->
                      Builder.binary b Ir.Mul tx (Builder.unary b Ir.Cos px)
                  | Ir.Cos ->
                      Builder.unary b Ir.Neg
                        (Builder.binary b Ir.Mul tx (Builder.unary b Ir.Sin px))
                  | Ir.Exp -> Builder.binary b Ir.Mul tx p
                  | Ir.Log -> Builder.binary b Ir.Div tx px
                  | Ir.Sqrt ->
                      Builder.binary b Ir.Div tx
                        (Builder.binary b Ir.Mul (two ()) p)
                  | Ir.Relu ->
                      (* the comparison result (0 or 1) is the relu mask *)
                      Builder.binary b Ir.Mul tx
                        (Builder.cmp b Ir.Gt px (zero ()))
                  | Ir.Sigmoid ->
                      let one_minus = Builder.binary b Ir.Sub (one ()) p in
                      Builder.binary b Ir.Mul tx
                        (Builder.binary b Ir.Mul p one_minus)
                  | Ir.Tanh ->
                      let sq = Builder.binary b Ir.Mul p p in
                      Builder.binary b Ir.Mul tx
                        (Builder.binary b Ir.Sub (one ()) sq)
                  | Ir.Floor -> zero ()
                in
                (p, t)
              end
            | Binary (op, x, y) -> begin
                let px = primal.(x)
                and py = primal.(y)
                and tx = tangent.(x)
                and ty = tangent.(y) in
                let p = Builder.binary b op px py in
                let t =
                  match op with
                  | Ir.Add -> Builder.binary b Ir.Add tx ty
                  | Ir.Sub -> Builder.binary b Ir.Sub tx ty
                  | Ir.Mul ->
                      Builder.binary b Ir.Add
                        (Builder.binary b Ir.Mul tx py)
                        (Builder.binary b Ir.Mul px ty)
                  | Ir.Div ->
                      let num =
                        Builder.binary b Ir.Sub
                          (Builder.binary b Ir.Mul tx py)
                          (Builder.binary b Ir.Mul px ty)
                      in
                      Builder.binary b Ir.Div num
                        (Builder.binary b Ir.Mul py py)
                  | Ir.Max ->
                      Builder.select b ~cond:(Builder.cmp b Ir.Ge px py)
                        ~if_true:tx ~if_false:ty
                  | Ir.Min ->
                      Builder.select b ~cond:(Builder.cmp b Ir.Le px py)
                        ~if_true:tx ~if_false:ty
                in
                (p, t)
              end
            | Cmp (op, x, y) ->
                (Builder.cmp b op primal.(x) primal.(y), zero ())
            | Select (c, x, y) ->
                ( Builder.select b ~cond:primal.(c) ~if_true:primal.(x)
                    ~if_false:primal.(y),
                  Builder.select b ~cond:primal.(c) ~if_true:tangent.(x)
                    ~if_false:tangent.(y) )
            | Call (callee, args) ->
                callee_jvp callee;
                let callee_fn =
                  match Interp.find m callee with
                  | Some c -> c
                  | None -> fail "@%s: unknown callee @%s" f.Ir.name callee
                in
                ignore callee_fn;
                (* primal value still needs the original function *)
                let p =
                  Builder.call b callee (Array.map (fun a -> primal.(a)) args)
                in
                let jvp_args =
                  Array.append
                    (Array.map (fun a -> primal.(a)) args)
                    (Array.map (fun a -> tangent.(a)) args)
                in
                let t = Builder.call b (jvp_name callee) jvp_args in
                (p, t)
          in
          primal.(v) <- p;
          tangent.(v) <- t)
        block.Ir.insts;
      (match block.Ir.term with
      | Ir.Ret v -> Builder.ret b tangent.(v)
      | Ir.Br _ | Ir.Cond_br _ ->
          fail "@%s: unexpected branch in a single-block function" f.Ir.name);
      let generated = Builder.finish b in
      Interp.add m generated;
      generated

let gradient_via_codegen m (f : Ir.func) (at : float array) =
  let jvp = generate_jvp m f in
  let n = f.Ir.n_args in
  Array.init n (fun i ->
      let args =
        Array.init (2 * n) (fun j ->
            if j < n then at.(j) else if j = n + i then 1.0 else 0.0)
      in
      Interp.eval m jvp args)

let vjp_name name wrt = Format.sprintf "%s_vjp_d%d" name wrt

(* Reverse-mode code generation for straight-line code: emit the primal
   instructions, then unroll the backward sweep — each original value gets a
   chain of adjoint contributions, summed as they are emitted. Calls use the
   callee's generated JVP per argument (for a scalar-to-scalar edge the
   JVP evaluated on a basis direction IS the partial), keeping the generated
   program first-order and self-contained. *)
let generate_vjp m (f : Ir.func) ~wrt =
  if wrt < 0 || wrt >= f.Ir.n_args then
    fail "@%s: wrt %d out of range" f.Ir.name wrt;
  match Interp.find m (vjp_name f.Ir.name wrt) with
  | Some existing -> existing
  | None ->
      if Array.length f.Ir.blocks <> 1 then
        fail "@%s: VJP code generation supports straight-line functions only"
          f.Ir.name;
      let block = f.Ir.blocks.(0) in
      let n = f.Ir.n_args in
      let b = Builder.create ~name:(vjp_name f.Ir.name wrt) ~n_args:(n + 1) in
      let seed = n in
      let total = Ir.block_values block in
      let primal = Array.make total (-1) in
      for i = 0 to n - 1 do
        primal.(i) <- i
      done;
      (* forward: replay the primal *)
      Array.iteri
        (fun ii inst ->
          let v = block.Ir.params + ii in
          let p =
            match (inst : Ir.inst) with
            | Const c -> Builder.const b c
            | Unary (op, x) -> Builder.unary b op primal.(x)
            | Binary (op, x, y) -> Builder.binary b op primal.(x) primal.(y)
            | Cmp (op, x, y) -> Builder.cmp b op primal.(x) primal.(y)
            | Select (c, x, y) ->
                Builder.select b ~cond:primal.(c) ~if_true:primal.(x)
                  ~if_false:primal.(y)
            | Call (callee, args) ->
                Builder.call b callee (Array.map (fun a -> primal.(a)) args)
          in
          primal.(v) <- p)
        block.Ir.insts;
      (* backward: adjoint value id per original value; None = zero so far *)
      let adjoint = Array.make total None in
      let accumulate v contrib =
        adjoint.(v) <-
          (match adjoint.(v) with
          | None -> Some contrib
          | Some prior -> Some (Builder.binary b Ir.Add prior contrib))
      in
      (match block.Ir.term with
      | Ir.Ret v -> accumulate v seed
      | Ir.Br _ | Ir.Cond_br _ -> fail "@%s: unexpected branch" f.Ir.name);
      let zero () = Builder.const b 0.0 in
      let one () = Builder.const b 1.0 in
      let two () = Builder.const b 2.0 in
      for ii = Array.length block.Ir.insts - 1 downto 0 do
        let v = block.Ir.params + ii in
        match adjoint.(v) with
        | None -> ()
        | Some a -> begin
            match block.Ir.insts.(ii) with
            | Const _ | Cmp _ -> ()
            | Unary (op, x) -> begin
                let px = primal.(x) and pv = primal.(v) in
                match op with
                | Ir.Neg -> accumulate x (Builder.unary b Ir.Neg a)
                | Ir.Sin ->
                    accumulate x (Builder.binary b Ir.Mul a (Builder.unary b Ir.Cos px))
                | Ir.Cos ->
                    accumulate x
                      (Builder.unary b Ir.Neg
                         (Builder.binary b Ir.Mul a (Builder.unary b Ir.Sin px)))
                | Ir.Exp -> accumulate x (Builder.binary b Ir.Mul a pv)
                | Ir.Log -> accumulate x (Builder.binary b Ir.Div a px)
                | Ir.Sqrt ->
                    accumulate x
                      (Builder.binary b Ir.Div a (Builder.binary b Ir.Mul (two ()) pv))
                | Ir.Relu ->
                    accumulate x
                      (Builder.binary b Ir.Mul a (Builder.cmp b Ir.Gt px (zero ())))
                | Ir.Sigmoid ->
                    let one_minus = Builder.binary b Ir.Sub (one ()) pv in
                    accumulate x
                      (Builder.binary b Ir.Mul a (Builder.binary b Ir.Mul pv one_minus))
                | Ir.Tanh ->
                    let sq = Builder.binary b Ir.Mul pv pv in
                    accumulate x
                      (Builder.binary b Ir.Mul a (Builder.binary b Ir.Sub (one ()) sq))
                | Ir.Floor -> ()
              end
            | Binary (op, x, y) -> begin
                let px = primal.(x) and py = primal.(y) in
                match op with
                | Ir.Add ->
                    accumulate x a;
                    accumulate y a
                | Ir.Sub ->
                    accumulate x a;
                    accumulate y (Builder.unary b Ir.Neg a)
                | Ir.Mul ->
                    accumulate x (Builder.binary b Ir.Mul a py);
                    accumulate y (Builder.binary b Ir.Mul a px)
                | Ir.Div ->
                    accumulate x (Builder.binary b Ir.Div a py);
                    let sq = Builder.binary b Ir.Mul py py in
                    let num = Builder.binary b Ir.Mul a px in
                    accumulate y
                      (Builder.unary b Ir.Neg (Builder.binary b Ir.Div num sq))
                | Ir.Max ->
                    let mask = Builder.cmp b Ir.Ge px py in
                    accumulate x (Builder.binary b Ir.Mul a mask);
                    let inv = Builder.binary b Ir.Sub (one ()) mask in
                    accumulate y (Builder.binary b Ir.Mul a inv)
                | Ir.Min ->
                    let mask = Builder.cmp b Ir.Le px py in
                    accumulate x (Builder.binary b Ir.Mul a mask);
                    let inv = Builder.binary b Ir.Sub (one ()) mask in
                    accumulate y (Builder.binary b Ir.Mul a inv)
              end
            | Select (c, x, y) ->
                (* route the adjoint down the taken branch; the condition may
                   be any non-zero value, so select (not multiply) by it *)
                accumulate x
                  (Builder.select b ~cond:primal.(c) ~if_true:a
                     ~if_false:(zero ()));
                accumulate y
                  (Builder.select b ~cond:primal.(c) ~if_true:(zero ())
                     ~if_false:a)
            | Call (callee, args) ->
                (* partial w.r.t. argument j = callee JVP along basis e_j *)
                (match Interp.find m callee with
                | Some callee_fn -> ignore (generate_jvp m callee_fn)
                | None -> fail "@%s: unknown callee @%s" f.Ir.name callee);
                Array.iteri
                  (fun j arg ->
                    let jvp_args =
                      Array.append
                        (Array.map (fun k -> primal.(k)) args)
                        (Array.map
                           (fun k -> if k = j then one () else zero ())
                           (Array.init (Array.length args) Fun.id))
                    in
                    let partial = Builder.call b (jvp_name callee) jvp_args in
                    accumulate arg (Builder.binary b Ir.Mul a partial))
                  args
          end
      done;
      (match adjoint.(wrt) with
      | Some a -> Builder.ret b a
      | None ->
          (* argument does not differentiably influence the result *)
          Builder.ret b (zero ()));
      let generated = Builder.finish b in
      Interp.add m generated;
      generated

let gradient_via_vjp_codegen m (f : Ir.func) (at : float array) =
  Array.init f.Ir.n_args (fun i ->
      let vjp = generate_vjp m f ~wrt:i in
      Interp.eval m vjp (Array.append at [| 1.0 |]))
