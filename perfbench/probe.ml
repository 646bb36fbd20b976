(** Real-clock accounting for the traced run. Everything here is measured
    from the benchmark's own code around calls into the library; nothing
    under [lib/] reports into it. *)

let now = Unix.gettimeofday

(** The [q]-quantile of [xs], [q] in [\[0, 1\]], through the library's
    histogram: linear interpolation between the closest ranks. *)
let quantile q xs =
  let h = S4o_obs.Metrics.histogram (S4o_obs.Metrics.create ()) "samples" in
  Array.iter (S4o_obs.Metrics.observe h) xs;
  S4o_obs.Metrics.quantile h q

let median xs = quantile 0.5 xs

type acc = { mutable s : float; mutable calls : int; mutable flops : float }

(* Time inside each [Backend_intf.S] op call, keyed by op name. *)
let ops : (string, acc) Hashtbl.t = Hashtbl.create 32

(* Time inside each benchmark-side span (nn phases, lazy cuts, xla replay),
   keyed by metric stem. *)
let spans : (string, acc) Hashtbl.t = Hashtbl.create 32

(* Real time spent replaying cut graphs through the XLA layer. The replay
   runs inside steps but is not part of them, so every span and step
   subtracts the replay time that fell inside it. *)
let excluded = ref 0.0

(* Distinct operand shapes seen by [conv2d] and [matmul], for the
   kernel-vs-[Reference] ratios. *)
type conv_call = {
  x : S4o_tensor.Shape.t;
  f : S4o_tensor.Shape.t;
  stride : int * int;
  padding : S4o_tensor.Convolution.padding;
}

let conv_calls : (conv_call, unit) Hashtbl.t = Hashtbl.create 8

let matmul_calls : (S4o_tensor.Shape.t * S4o_tensor.Shape.t, unit) Hashtbl.t =
  Hashtbl.create 8

(* Plain counts (graph sizes), keyed by metric stem. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 8

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)

let counted name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

let reset () =
  Hashtbl.reset ops;
  Hashtbl.reset spans;
  Hashtbl.reset counts;
  Hashtbl.reset conv_calls;
  Hashtbl.reset matmul_calls;
  excluded := 0.0

let acc tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
      let a = { s = 0.0; calls = 0; flops = 0.0 } in
      Hashtbl.add tbl name a;
      a

let add tbl name ?(flops = 0.0) dt =
  let a = acc tbl name in
  a.s <- a.s +. dt;
  a.calls <- a.calls + 1;
  a.flops <- a.flops +. flops

let seconds tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.s | None -> 0.0

let calls tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.calls | None -> 0

(** Time one backend op; [flops] is computed from the result, after the
    clock stops. *)
let op ?flops name f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  add ops name ?flops:(Option.map (fun g -> g r) flops) dt;
  r

(** Time a benchmark-side span, minus any replay time inside it. *)
let span name f =
  let e0 = !excluded and t0 = now () in
  let r = f () in
  add spans name (now () -. t0 -. (!excluded -. e0));
  r

(** Total time inside backend op calls so far. *)
let op_seconds () = Hashtbl.fold (fun _ a acc -> acc +. a.s) ops 0.0

let op_calls () = Hashtbl.fold (fun _ a acc -> acc + a.calls) ops 0
