(** HLO graph checker and linter.

    The structural errors are {!S4o_xla.Hlo.violations}, which
    {!S4o_xla.Hlo.validate} also uses: the compiler raises on the first,
    while the checker reports {e every} one as an error. They are the
    catalog's shape rules ({!S4o_ops.Catalog.of_kind} on the input shapes,
    compared with the declared shape), leaf roles and parameter numbering.

    Lints (advisory): sparse parameter numbering, dead nodes not reachable
    from the outputs (what [dead_code_elim] would drop), duplicate literal
    contents (what [cse] would merge), oversized pending regions, and —
    across a sequence of cuts via {!Hazard} — recompile hazards: many
    programs sharing one op skeleton but differing in shapes, the §3.4
    cache-miss pathology that shape bucketing fixes. *)

open S4o_tensor
open S4o_xla

type severity = Error | Warning

type finding = {
  severity : severity;
  rule : string;  (** Stable machine-readable rule id, e.g. ["shape"]. *)
  node : int option;  (** Offending node id, when node-specific. *)
  message : string;
}

let errors fs = List.filter (fun f -> f.severity = Error) fs
let warnings fs = List.filter (fun f -> f.severity = Warning) fs

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s%s: %s"
    (match f.severity with Error -> "error" | Warning -> "warn")
    f.rule
    (match f.node with Some id -> Printf.sprintf " n%d" id | None -> "")
    f.message

(** {1 Graph checks} *)

let lint_graph ?pending_limit (g : Hlo.graph) : finding list =
  let out = ref [] in
  let add ?node rule fmt =
    Format.kasprintf
      (fun message -> out := { severity = Warning; rule; node; message } :: !out)
      fmt
  in
  (* Sparse parameter numbering: optimizers may drop an unused parameter,
     and the executor binds by index, so a gap is only worth a lint.
     Negative and duplicate indices are violations. *)
  let params =
    List.filter_map
      (fun (n : Hlo.node) ->
        match n.role with Hlo.Param i -> Some (i, n.id) | _ -> None)
      g.nodes
  in
  let k = List.length params in
  List.iter
    (fun (i, id) ->
      if i >= k then
        add ~node:id "param" "parameter index %d outside dense range 0..%d" i
          (k - 1))
    params;
  (* Dead nodes: present in [nodes] but unreachable from the outputs —
     exactly what dead_code_elim would drop. *)
  let reachable = Hashtbl.create 64 in
  let rec visit (n : Hlo.node) =
    if not (Hashtbl.mem reachable n.id) then begin
      Hashtbl.add reachable n.id ();
      List.iter visit n.inputs
    end
  in
  List.iter visit g.outputs;
  List.iter
    (fun (n : Hlo.node) ->
      if not (Hashtbl.mem reachable n.id) then
        add ~node:n.id "dead-node" "%s [%s] unreachable from outputs: dead code"
          (Hlo.name n) (Shape.to_string n.shape))
    g.nodes;
  (* Duplicate literals: same contents recorded as distinct nodes — CSE
     would merge them; before it runs they bloat the fingerprint and the
     transfer set. *)
  let lits = Hlo.Node_table.create 16 in
  List.iter
    (fun (n : Hlo.node) ->
      match n.role with
      | Hlo.Literal _ -> (
          let key = Hlo.node_key ~input:(fun i -> i.Hlo.id) n in
          match Hlo.Node_table.find_opt lits key with
          | Some prior_id ->
              add ~node:n.id "dup-literal"
                "literal [%s] duplicates n%d: cse would merge them"
                (Shape.to_string n.shape) prior_id
          | None -> Hlo.Node_table.add lits key n.id)
      | Hlo.Compute _ | Hlo.Param _ -> ())
    g.nodes;
  (match pending_limit with
  | Some limit when Hlo.size g > limit ->
      add "pending-region"
        "%d nodes in one cut exceeds the %d-node budget: cut the trace more \
         often (step boundaries) to bound compile time and memory"
        (Hlo.size g) limit
  | Some _ | None -> ());
  List.rev !out

let check_graph ?pending_limit (g : Hlo.graph) : finding list =
  List.map
    (fun (id, rule, message) -> { severity = Error; rule; node = Some id; message })
    (Hlo.violations g)
  @ lint_graph ?pending_limit g

(** {1 Recompile-hazard detection}

    The program cache keys on the full structure ({!Hlo.key}), so a model
    re-traced with a different batch size is a compile-cache miss even
    though the op skeleton is identical. The hazard detector groups keys by
    their skeleton, the key with shapes and op parameters erased; one
    skeleton accumulating many distinct keys is the §3.4 pathology (fix:
    pad/bucket the varying dimension). Both compare in full. *)

module Hazard = struct
  (* Per node in topological order: its op name (["parameter"] and
     ["constant"] for leaves), its parameter position (-1 for other nodes)
     and its operands' positions; then the outputs' positions. *)
  type skeleton = (string * int * int list) list * int list

  module Skeletons = Hashtbl.Make (struct
    type t = skeleton

    let equal : t -> t -> bool = ( = )

    let hash ((nodes, outputs) : t) =
      let mix h v = (h * 1000003) lxor v in
      List.fold_left
        (fun h (name, param, inputs) ->
          List.fold_left mix (mix (mix h (Hashtbl.hash name)) param) inputs)
        (List.fold_left mix 0 outputs)
        nodes
  end)

  type t = { threshold : int; skeletons : unit Hlo.Table.t Skeletons.t }

  let create ?(threshold = 4) () = { threshold; skeletons = Skeletons.create 16 }

  let skeleton (g : Hlo.graph) : skeleton =
    let position = Hashtbl.create 64 in
    List.iteri (fun i (n : Hlo.node) -> Hashtbl.add position n.id i) g.nodes;
    let pos (n : Hlo.node) = Hashtbl.find position n.id in
    ( List.map
        (fun (n : Hlo.node) ->
          ( Hlo.name n,
            (match n.role with Hlo.Param i -> i | Hlo.Compute _ | Hlo.Literal _ -> -1),
            List.map pos n.inputs ))
        g.nodes,
      List.map pos g.outputs )

  let observe t (g : Hlo.graph) : finding list =
    let sk = skeleton g in
    let keys =
      match Skeletons.find_opt t.skeletons sk with
      | Some keys -> keys
      | None ->
          let keys = Hlo.Table.create 4 in
          Skeletons.add t.skeletons sk keys;
          keys
    in
    let key = Hlo.key g in
    if Hlo.Table.mem keys key then []
    else begin
      Hlo.Table.add keys key ();
      (* Keys arrive one at a time, so each skeleton is reported once. *)
      if Hlo.Table.length keys <> t.threshold then []
      else
        [
          {
            severity = Warning;
            rule = "recompile-hazard";
            node = None;
            message =
              Printf.sprintf
                "%d distinct fingerprints share one op skeleton: each is a \
                 compile-cache miss; bucket the varying dimension (pad \
                 batch/sequence sizes) to reuse programs"
                t.threshold;
          };
        ]
    end

  let skeleton_counts t =
    Skeletons.fold (fun _ keys acc -> Hlo.Table.length keys :: acc) t.skeletons []
    |> List.sort (fun a b -> compare b a)
end

(** {1 Reporting} *)

let severity_str = function Error -> "error" | Warning -> "warning"

module J = S4o_obs.Json

let finding_to_json (f : finding) : J.t =
  J.Obj
    ([
       ("severity", J.Str (severity_str f.severity));
       ("rule", J.Str f.rule);
       ("message", J.Str f.message);
     ]
    @ match f.node with
      | Some id -> [ ("node", J.Num (float_of_int id)) ]
      | None -> [])

let report_to_json ~graph_name (g : Hlo.graph) (findings : finding list) : J.t
    =
  J.Obj
    [
      ("graph", J.Str graph_name);
      ("nodes", J.Num (float_of_int (Hlo.size g)));
      ("outputs", J.Num (float_of_int (List.length g.outputs)));
      ("params", J.Num (float_of_int (List.length (Hlo.params g))));
      ("fingerprint", J.Str (Printf.sprintf "%x" (Hlo.fingerprint g)));
      ("errors", J.Num (float_of_int (List.length (errors findings))));
      ("warnings", J.Num (float_of_int (List.length (warnings findings))));
      ("findings", J.Arr (List.map finding_to_json findings));
    ]
