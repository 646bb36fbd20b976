(** The MSIL IR verifier.

    The structural checks are {!S4o_sil.Ir.violations}, which
    {!S4o_sil.Ir.validate} also uses: it raises on the first, while the
    verifier reports {e every} one as an error (the function is malformed —
    interpreting it would be undefined). It adds warnings (well-formed but
    suspicious — a missed-optimization or density lint) computed with
    {!S4o_sil.Dataflow}. The passes, the AD transform and the builder call
    {!S4o_sil.Ir.validate} themselves, so a renumbering bug in a pass
    surfaces at the pass, not as a wrong number three layers later; the
    verifier is the reporting side, for [s4o_cli analyze].

    Errors: def-before-use, operand/terminator ranges, branch-argument
    arity, entry arity. Warnings (dataflow-powered): unreachable blocks,
    dead instruction results (value-numbering density — DCE output must
    have none), single-definition block parameters, constant branch
    conditions. *)

open S4o_sil

type severity = Error | Warning

type violation = {
  severity : severity;
  func : string;
  block : int;
  site : string;  (** e.g. ["inst 3"], ["term"], ["param 1"]. *)
  message : string;
}

let errors vs = List.filter (fun v -> v.severity = Error) vs
let warnings vs = List.filter (fun v -> v.severity = Warning) vs

let pp_violation ppf v =
  Format.fprintf ppf "[%s] @%s bb%d %s: %s"
    (match v.severity with Error -> "error" | Warning -> "warn")
    v.func v.block v.site v.message

let structural (f : Ir.func) =
  List.map
    (fun (block, site, message) ->
      { severity = Error; func = f.Ir.name; block; site; message })
    (Ir.violations f)

let lints (f : Ir.func) =
  let out = ref [] in
  let add block site fmt =
    Format.kasprintf
      (fun message ->
        out :=
          { severity = Warning; func = f.Ir.name; block; site; message }
          :: !out)
      fmt
  in
  let reach = Dataflow.reachable f in
  Array.iteri
    (fun bi r -> if not r then add bi "block" "unreachable from entry")
    reach;
  List.iter
    (fun (bi, ii) ->
      if reach.(bi) then
        add bi (Printf.sprintf "inst %d" ii)
          "dead result v%d (value-numbering density: run dead_code_elim)"
          (f.Ir.blocks.(bi).Ir.params + ii))
    (Dataflow.Liveness.dead_insts f);
  List.iter
    (fun (bi, p) ->
      add bi (Printf.sprintf "param %d" p)
        "single reaching definition: sinkable past the branch")
    (Dataflow.Reaching.redundant_params f);
  List.iter
    (fun (bi, c) ->
      add bi "term" "branch condition is always %g" c)
    (Dataflow.Const_prop.constant_branches f);
  List.rev !out

let func (f : Ir.func) =
  let errs = structural f in
  (* Dataflow over malformed IR would index out of range — lint only when
     structurally clean. *)
  if errors errs = [] then errs @ lints f else errs
