(** The XLA layer, seen from outside: just before the lazy runtime cuts a
    trace, the benchmark captures the same pending region with
    [Trace.to_hlo] and replays fingerprinting, optimization, fusion and
    compilation on it, timing each. The replay's own time is added to
    {!Probe.excluded}, so it never counts as step time. *)

open S4o_lazy
module Hlo = S4o_xla.Hlo
module Opt = S4o_xla.Opt
module Compiler = S4o_xla.Compiler

(** What one cut costs before execution: the parts of a barrier or force
    that are not running kernels. *)
type cut = { to_hlo : float; fingerprint : float; compile : float }

let no_cut = { to_hlo = 0.0; fingerprint = 0.0; compile = 0.0 }

(* The runtime cuts only pending roots, each once. *)
let pending_roots roots =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (n : Trace.node) ->
      Trace.is_pending n
      && (not (Hashtbl.mem seen n.Trace.id))
      &&
      (Hashtbl.add seen n.Trace.id ();
       true))
    roots

let timed name f =
  let t0 = Probe.now () in
  let r = f () in
  let dt = Probe.now () -. t0 in
  Probe.add Probe.spans name dt;
  (r, dt)

let capture roots =
  let start = Probe.now () in
  let cut =
    match pending_roots roots with
    | [] -> no_cut
    | roots ->
        let (g, _, _), to_hlo = timed "xla.to_hlo" (fun () -> Trace.to_hlo roots) in
        let _, fingerprint = timed "xla.fingerprint" (fun () -> Hlo.fingerprint g) in
        let (og, _), _ = timed "xla.optimize" (fun () -> Opt.optimize g) in
        let _ = timed "xla.fuse" (fun () -> Opt.fuse og) in
        let exe, compile = timed "xla.compile" (fun () -> Compiler.compile g) in
        let st = Compiler.stats exe in
        Probe.count "xla.input_nodes" (float_of_int st.Compiler.input_nodes);
        Probe.count "xla.clusters" (float_of_int st.Compiler.clusters);
        { to_hlo; fingerprint; compile }
  in
  Probe.excluded := !Probe.excluded +. (Probe.now () -. start);
  cut
