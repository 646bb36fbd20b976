(** [infer-lenet-lazy]: LeNet-5 forward-only inference on the lazy backend,
    one request at a time from one closed-loop caller, batch sizes from
    {!Mix}. *)

open S4o_tensor
module Dataset = S4o_data.Dataset

(** Requests in one pass of the mix; the timed phase repeats the pass until
    its deadline, and always finishes the first, so every fresh size misses
    the cache exactly once per run. *)
let n_requests = 400

let pool_size = 128

(** Requests compared against a naive forward pass of the same weights. *)
let n_checked = 16

type world = {
  setup_s : float;  (** data generation, model init and one compile per recurring size *)
  gen_s : float;
  reqs : Mix.request array;
  checked : int list;  (** requests whose answers the check compares *)
  run : deadline:float -> traced:bool -> float array * int;
      (** Request latencies and failed requests. *)
  outputs : (int, Dense.t) Hashtbl.t;  (** checked request -> its answer *)
  answer : int -> Dense.t;  (** one request, outside any timing *)
}

(* Examples [start .. start+len-1] of an NHWC pool, copied. *)
let examples pool ~start ~len =
  let s = Dense.shape pool in
  let per = Shape.numel s / s.(0) in
  let x = Dense.uninit (Array.append [| len |] (Array.sub s 1 (Array.length s - 1))) in
  Dense.blit_flat ~src:pool ~src_pos:(start * per) ~dst:x ~dst_pos:0 ~len:(len * per);
  x

(** The requests whose answers are checked, drawn from the seed. *)
let checked_requests ~seed =
  let rng = Prng.create (seed lxor 0x5eed) in
  Array.to_list (Array.sub (Prng.permutation rng n_requests) 0 n_checked)

module World (Bk : Backends.S) = struct
  module M = S4o_nn.Models.Make (Bk)
  module T = S4o_nn.Train.Make (Bk)

  let forward model x = Bk.to_dense (T.predict model (Bk.of_dense x))

  let traced_forward model x =
    let y = Probe.span "nn.forward" (fun () -> T.predict model (Bk.of_dense x)) in
    Probe.span "nn.observe" (fun () -> Bk.to_dense y)

  let make ~seed =
    let rng = Prng.create seed in
    let data_rng = Prng.split rng and model_rng = Prng.split rng in
    let mix_rng = Prng.split rng in
    let checked = checked_requests ~seed in
    let t0 = Probe.now () in
    let pool = (Dataset.synthetic_mnist data_rng ~n:pool_size).Dataset.images in
    let reqs = Mix.generate mix_rng ~n:n_requests ~pool:pool_size in
    (* A request's payload is copied out of the pool just before it is
       sent, outside its latency, so only one is alive at a time. *)
    let input i = examples pool ~start:reqs.(i).Mix.offset ~len:reqs.(i).Mix.size in
    let gen_s = Probe.now () -. t0 in
    let model = M.lenet model_rng in
    Array.iter
      (fun size -> ignore (forward model (examples pool ~start:0 ~len:size)))
      Mix.recurring;
    let setup_s = Probe.now () -. t0 in
    let outputs = Hashtbl.create n_checked in
    let run ~deadline ~traced =
      let f = if traced then traced_forward else forward in
      let latencies = ref [] and failed = ref 0 in
      let rec go ~first i =
        if i = n_requests then go ~first:false 0
        else if first || Probe.now () < deadline then begin
          let x = input i in
          let e0 = !Probe.excluded and t0 = Probe.now () in
          (match f model x with
          | y -> if first && List.mem i checked then Hashtbl.replace outputs i y
          | exception _ -> incr failed);
          latencies := (Probe.now () -. t0 -. (!Probe.excluded -. e0)) :: !latencies;
          go ~first (i + 1)
        end
      in
      go ~first:true 0;
      (Array.of_list (List.rev !latencies), !failed)
    in
    { setup_s; gen_s; reqs; checked; run; outputs; answer = (fun i -> forward model (input i)) }
end

let world (module Bk : Backends.S) ~seed =
  let module W = World (Bk) in
  W.make ~seed

(** Checked requests whose answer differs, bit for bit, from [reference]'s
    (a naive world from the same seed), or that never got an answer. *)
let check w ~reference =
  List.fold_left
    (fun failures i ->
      match Hashtbl.find_opt w.outputs i with
      | Some y when Dense.equal y (reference.answer i) -> failures
      | Some _ | None -> failures + 1)
    0 w.checked
