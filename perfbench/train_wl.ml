(** [train-resnet-naive] and [train-resnet-lazy]: resnet-tiny trained with
    Adam on synthetic CIFAR-10, batch 32, by one closed-loop caller. *)

open S4o_tensor
module Dataset = S4o_data.Dataset

let batch_size = 32
let n_batches = 8

(** Steps the checks compare: the warm-up step and the first timed ones. *)
let check_steps = 3

exception Stop

(** One set-up training world, its backend type hidden behind closures. *)
type world = {
  setup_s : float;  (** data generation, model init and warm-up step *)
  gen_s : float;
  warm_digest : string;  (** parameters and optimizer state after warm-up *)
  run : deadline:float -> max_steps:int -> float array * int;
      (** Untraced, through [Train.fit]: step durations and failed steps.
          Runs at least [check_steps - 1] steps, whatever the deadline. *)
  run_traced : deadline:float -> float array * int;
      (** Traced: the same step assembled from its parts, each timed. *)
  losses : unit -> float list;  (** every step's loss, warm-up first *)
  snapshot : unit -> Dense.t list;  (** state after [check_steps] steps *)
}

module World (Bk : Backends.S) = struct
  module M = S4o_nn.Models.Make (Bk)
  module T = S4o_nn.Train.Make (Bk)
  module O = S4o_nn.Optimizer.Make (Bk)

  type state = {
    model : M.L.t;
    opt : O.t;
    batches : (Dense.t * Dense.t * int array) list;
        (** the timed steps cycle these; the warm-up took the first *)
    mutable steps : int;
    mutable losses : Bk.t list;  (** newest first *)
    mutable snapshot : Dense.t list;
  }

  let digest ts =
    let b = Buffer.create 4096 in
    List.iter
      (fun t ->
        Array.iter
          (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
          (Dense.to_array (Bk.to_dense t)))
      ts;
    Digest.to_hex (Digest.string (Buffer.contents b))

  (* [Train.fit]'s hook: the backend's own after-step, then what the checks
     read once the timed phase is over. *)
  let after_step st ts =
    Bk.after_step ts;
    st.steps <- st.steps + 1;
    st.losses <- List.hd ts :: st.losses;
    if st.steps = check_steps then
      st.snapshot <- List.map (fun t -> Dense.copy (Bk.to_dense t)) (List.tl ts)

  let setup ~seed =
    let rng = Prng.create seed in
    let data_rng = Prng.split rng and model_rng = Prng.split rng in
    let t0 = Probe.now () in
    let data = Dataset.synthetic_cifar10 data_rng ~n:(batch_size * n_batches) in
    let batches = Dataset.batches data ~batch_size in
    let gen_s = Probe.now () -. t0 in
    let model = M.resnet model_rng ~in_channels:3 (M.resnet_tiny_config ~classes:10) in
    let opt = O.adam ~lr:1e-3 model in
    let st =
      {
        model;
        opt;
        batches = List.tl batches @ [ List.hd batches ];
        steps = 0;
        losses = [];
        snapshot = [];
      }
    in
    ignore (T.fit ~after_step:(after_step st) model opt [ List.hd batches ]);
    (st, gen_s, digest (O.updated_params opt))

  (* Runs [steps] until it raises [Stop]. Any other exception fails the
     step it hit, and [steps] starts again with the next one until the
     deadline. *)
  let loop ~deadline steps =
    let failed = ref 0 in
    let rec go () =
      match steps () with
      | () -> ()
      | exception Stop -> ()
      | exception _ ->
          incr failed;
          if Probe.now () < deadline then go ()
    in
    go ();
    !failed

  (* A step spans from one [after_step] return to the next, so [n] steps
     give [n - 1] durations. *)
  let run st ~deadline ~max_steps =
    let marks = ref [] in
    let last = st.steps + min max_steps (max_int - st.steps) and least = check_steps in
    let stop () = st.steps >= last || (Probe.now () >= deadline && st.steps >= least) in
    let failed =
      loop ~deadline (fun () ->
          ignore
            (T.fit ~epochs:max_int
               ~after_step:(fun ts ->
                 after_step st ts;
                 marks := Probe.now () :: !marks;
                 if stop () then raise Stop)
               st.model st.opt st.batches))
    in
    let m = Array.of_list (List.rev !marks) in
    (Array.init (max 0 (Array.length m - 1)) (fun i -> m.(i + 1) -. m.(i)), failed)

  (* [Train.fit]'s step, phase by phase, in the same order. *)
  let traced_step st (images, one_hot, labels) =
    let ctx = M.L.D.new_ctx () in
    let logits, loss =
      Probe.span "nn.forward" (fun () ->
          let logits = M.L.apply st.model ctx (M.L.D.const (Bk.of_dense images)) in
          (logits, M.L.D.softmax_cross_entropy ~labels:(Bk.of_dense one_hot) logits))
    in
    Probe.span "nn.backward" (fun () -> M.L.D.backward ctx loss);
    Probe.span "nn.optimizer" (fun () -> st.opt.O.step ());
    Probe.span "nn.observe" (fun () ->
        Bk.after_step (M.L.D.value loss :: O.updated_params st.opt);
        ignore (Dense.item (Bk.to_dense (M.L.D.value loss)));
        ignore (T.accuracy_of_logits (M.L.D.value logits) labels))

  let run_traced st ~deadline =
    let durations = ref [] and pending = ref [] in
    let step () =
      if !pending = [] then pending := st.batches;
      let b = List.hd !pending in
      pending := List.tl !pending;
      let e0 = !Probe.excluded and t0 = Probe.now () in
      traced_step st b;
      durations := (Probe.now () -. t0 -. (!Probe.excluded -. e0)) :: !durations;
      if Probe.now () >= deadline then raise Stop
    in
    let rec forever () =
      step ();
      forever ()
    in
    let failed = loop ~deadline forever in
    (Array.of_list (List.rev !durations), failed)
end

let world (module Bk : Backends.S) ~seed =
  let module W = World (Bk) in
  let t0 = Probe.now () in
  let st, gen_s, warm_digest = W.setup ~seed in
  {
    setup_s = Probe.now () -. t0;
    gen_s;
    warm_digest;
    run = W.run st;
    run_traced = W.run_traced st;
    losses =
      (fun () -> List.rev_map (fun l -> Dense.item (Bk.to_dense l)) st.W.losses);
    snapshot = (fun () -> st.W.snapshot);
  }

(** Failures found by comparing [w] with worlds set up from the same seed:
    their warm-up [digests] must equal [w]'s, every loss must be finite,
    and a [reference] world (naive, when [w] is lazy) replayed for the same
    first steps must match [w]'s losses and state bit for bit. *)
let check ?reference w ~digests =
  let failures = ref 0 in
  let expect cond = if not cond then incr failures in
  let losses = w.losses () in
  List.iter (fun d -> expect (d = w.warm_digest)) digests;
  List.iter (fun l -> expect (Float.is_finite l)) losses;
  Option.iter
    (fun r ->
      ignore (r.run ~deadline:(Probe.now () +. 60.0) ~max_steps:(check_steps - 1));
      let first n l = List.filteri (fun i _ -> i < n) l in
      let bits = List.map Int64.bits_of_float in
      let mine = first check_steps losses and theirs = first check_steps (r.losses ()) in
      if List.length mine <> check_steps || List.length theirs <> check_steps then
        incr failures
      else List.iter2 (fun a b -> expect (a = b)) (bits mine) (bits theirs);
      let a = w.snapshot () and b = r.snapshot () in
      expect (a <> [] && List.length a = List.length b && List.for_all2 Dense.equal a b))
    reference;
  !failures
