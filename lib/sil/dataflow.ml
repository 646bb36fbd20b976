(** A generic dataflow fixpoint engine over MSIL control-flow graphs.

    MSIL values are block-local (a block references only its own parameters
    and instruction results), so all inter-block flow happens through
    branch arguments: a branch [br bbT(v1..vk)] binds the source block's
    values to the target block's parameters. Both solvers bake that
    coupling in, which is what makes the engine small:

    - {!Make.forward} pushes facts along execution order — instruction
      facts come from a client transfer function over operand facts, block
      parameter facts are the join of the incoming branch-argument facts.
    - {!Make.backward} pulls demands against execution order — terminator
      uses seed facts, instruction results push contributions onto their
      operands, and target-parameter facts flow back onto branch arguments.

    Iteration is round-robin to a fixpoint; the lattices used here are
    finite (or flat) so termination is immediate. The engine is
    deliberately dumb — CFGs in this codebase are a handful of blocks — and
    favors being obviously correct over being fast. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

(** [(target, args)] successor list of a terminator. *)
let branches (b : Ir.block) =
  match b.Ir.term with
  | Ir.Ret _ -> []
  | Ir.Br (t, args) -> [ (t, args) ]
  | Ir.Cond_br (_, bt, at, bf, af) -> [ (bt, at); (bf, af) ]

(** Blocks reachable from the entry, as a boolean mask. *)
let reachable (f : Ir.func) =
  let seen = Array.make (Array.length f.Ir.blocks) false in
  let rec visit bi =
    if not seen.(bi) then begin
      seen.(bi) <- true;
      List.iter (fun (t, _) -> visit t) (branches f.Ir.blocks.(bi))
    end
  in
  if Array.length f.Ir.blocks > 0 then visit 0;
  seen

module Make (L : LATTICE) = struct
  type facts = L.t array array
  (** [facts.(bi).(v)] is the fact for value [v] of block [bi]. *)

  let init (f : Ir.func) =
    Array.map (fun b -> Array.make (Ir.block_values b) L.bottom) f.Ir.blocks

  let forward (f : Ir.func) ~entry ~transfer : facts =
    let facts = init f in
    if Array.length f.Ir.blocks > 0 then
      for p = 0 to f.Ir.blocks.(0).Ir.params - 1 do
        facts.(0).(p) <- entry p
      done;
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun bi b ->
          let fs = facts.(bi) in
          Array.iteri
            (fun ii inst ->
              let v = b.Ir.params + ii in
              let nf = L.join fs.(v) (transfer ~bi ~ii inst (fun u -> fs.(u))) in
              if not (L.equal nf fs.(v)) then begin
                fs.(v) <- nf;
                changed := true
              end)
            b.Ir.insts;
          List.iter
            (fun (t, args) ->
              let tf = facts.(t) in
              Array.iteri
                (fun j av ->
                  let nf = L.join tf.(j) fs.(av) in
                  if not (L.equal nf tf.(j)) then begin
                    tf.(j) <- nf;
                    changed := true
                  end)
                args)
            (branches b))
        f.Ir.blocks
    done;
    facts

  let backward (f : Ir.func) ~term_seed ~transfer : facts =
    let facts = init f in
    let changed = ref true in
    while !changed do
      changed := false;
      let bump fs v l =
        let j = L.join fs.(v) l in
        if not (L.equal j fs.(v)) then begin
          fs.(v) <- j;
          changed := true
        end
      in
      for bi = Array.length f.Ir.blocks - 1 downto 0 do
        let b = f.Ir.blocks.(bi) in
        let fs = facts.(bi) in
        List.iter (fun (v, l) -> bump fs v l) (term_seed ~bi b.Ir.term);
        List.iter
          (fun (t, args) ->
            Array.iteri (fun j av -> bump fs av facts.(t).(j)) args)
          (branches b);
        for ii = Array.length b.Ir.insts - 1 downto 0 do
          let v = b.Ir.params + ii in
          List.iter
            (fun (u, l) -> bump fs u l)
            (transfer ~bi ~ii b.Ir.insts.(ii) ~result:fs.(v))
        done
      done
    done;
    facts
end

module Bool_lattice = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end

module Bools = Make (Bool_lattice)

(** {1 Instances} *)

module Liveness = struct
  (** [live.(bi).(v)] — the value contributes to the function result.
      (MSIL calls are pure, so an unused call is dead.) *)
  let analyze (f : Ir.func) : bool array array =
    Bools.backward f
      ~term_seed:(fun ~bi:_ term ->
        match (term : Ir.terminator) with
        | Ret v -> [ (v, true) ]
        | Br _ -> []
        | Cond_br (c, _, _, _, _) -> [ (c, true) ])
      ~transfer:(fun ~bi:_ ~ii:_ inst ~result ->
        if result then List.map (fun u -> (u, true)) (Ir.inst_operands inst)
        else [])

  (** Instructions whose result is dead, as [(block, inst index)] pairs.
      Empty after {!Passes.dead_code_elim} — the value-numbering
      density invariant. *)
  let dead_insts (f : Ir.func) =
    let live = analyze f in
    let out = ref [] in
    Array.iteri
      (fun bi b ->
        Array.iteri
          (fun ii _ ->
            if not live.(bi).(b.Ir.params + ii) then out := (bi, ii) :: !out)
          b.Ir.insts)
      f.Ir.blocks;
    List.rev !out
end

module Reaching = struct
  (** A definition site: an entry argument or instruction [ii] of block
      [bi]. With block-argument SSA the only non-trivial flow is into block
      parameters, whose reaching set is the union of the incoming
      branch-argument definitions. *)
  type def = Arg of int | Def of int * int

  module S = Set.Make (struct
    type t = def

    let compare = compare
  end)

  module E = Make (struct
    type t = S.t

    let bottom = S.empty
    let equal = S.equal
    let join = S.union
  end)

  let analyze (f : Ir.func) : S.t array array =
    E.forward f
      ~entry:(fun p -> S.singleton (Arg p))
      ~transfer:(fun ~bi ~ii _inst _get -> S.singleton (Def (bi, ii)))

  (** Non-entry block parameters fed by exactly one definition site, as
      [(block, param)] pairs — the definition could be sunk past the branch
      (a missed-simplification lint, not an error). *)
  let redundant_params (f : Ir.func) =
    let facts = analyze f in
    let reach = reachable f in
    let out = ref [] in
    Array.iteri
      (fun bi b ->
        if bi > 0 && reach.(bi) then
          for p = 0 to b.Ir.params - 1 do
            if S.cardinal facts.(bi).(p) = 1 then out := (bi, p) :: !out
          done)
      f.Ir.blocks;
    List.rev !out
end

module Const_prop = struct
  (** Flat constant lattice: [Bot] (no value seen), [Const c], [Top]. *)
  type value = Bot | Const of float | Top

  module E = Make (struct
    type t = value

    let bottom = Bot

    let equal a b =
      match (a, b) with
      | Bot, Bot | Top, Top -> true
      | Const x, Const y -> Float.equal x y
      | _, _ -> false

    let join a b =
      match (a, b) with
      | Bot, x | x, Bot -> x
      | Top, _ | _, Top -> Top
      | Const x, Const y -> if Float.equal x y then a else Top
    end)

  let analyze (f : Ir.func) : value array array =
    E.forward f
      ~entry:(fun _ -> Top)
      ~transfer:(fun ~bi:_ ~ii:_ inst get ->
        let known u = match get u with Const c -> Some c | Bot | Top -> None in
        match Interp.fold_inst known inst with
        | Some c -> Const c
        | None -> Top)

  (** Reachable conditional branches whose condition is a known constant,
      as [(block, constant)] pairs — the branch always goes one way. *)
  let constant_branches (f : Ir.func) =
    let facts = analyze f in
    let reach = reachable f in
    let out = ref [] in
    Array.iteri
      (fun bi b ->
        if reach.(bi) then
          match b.Ir.term with
          | Ir.Cond_br (c, _, _, _, _) -> begin
              match facts.(bi).(c) with
              | Const cv -> out := (bi, cv) :: !out
              | Bot | Top -> ()
            end
          | Ir.Br _ | Ir.Ret _ -> ())
      f.Ir.blocks;
    List.rev !out
end
