(** The request mix of [infer-lenet-lazy]: a seeded sequence of batch
    sizes. Most requests reuse a few recurring sizes, which the set-up
    compiles, so they hit the program cache; the rest draw a fresh size from
    [1..max_size], and the first request of each size new to the cache
    misses it and inserts a program. The recurring sizes are fixed rather
    than drawn so that every seed asks for the same work in distribution. *)

module Serve = S4o_serve

(** The batch shapes the repository's own LeNet server sends with its
    default configuration: the batcher's buckets for the default
    [max_batch] (1, 2, 4 and 8). *)
let recurring =
  let cfg = Serve.Server.default_config () in
  Array.of_list
    (Serve.Batcher.buckets
       (Serve.Batcher.create ~max_batch:cfg.Serve.Server.max_batch
          ~timeout:cfg.Serve.Server.batch_timeout ()))

let max_size = 64

(** Share of requests drawn from {!recurring}. An assumed value, not taken
    from a measured request trace: it keeps most requests on the cache's
    hit path and enough on its miss path to count. *)
let recurring_share = 0.8

type request = { size : int; offset : int  (** first example in the pool *) }

(** [generate rng ~n ~pool] draws [n] requests whose examples lie in a pool
    of [pool >= max_size] examples. Exactly [recurring_share] of them recur,
    split evenly over {!recurring}, so the median request size is the same
    for every seed; the seed draws the fresh sizes, the order and the
    offsets. *)
let generate rng ~n ~pool =
  if pool < max_size then invalid_arg "Mix.generate: pool smaller than max_size";
  let n_recurring = int_of_float (Float.round (recurring_share *. float_of_int n)) in
  let sizes =
    Array.init n (fun i ->
        if i < n_recurring then recurring.(i mod Array.length recurring)
        else 1 + S4o_tensor.Prng.int rng max_size)
  in
  Array.map
    (fun i ->
      let size = sizes.(i) in
      { size; offset = S4o_tensor.Prng.int rng (pool - size + 1) })
    (S4o_tensor.Prng.permutation rng n)

let distinct_sizes reqs =
  List.length (List.sort_uniq compare (Array.to_list (Array.map (fun r -> r.size) reqs)))

(** Sizes the set-up does not compile: one cache miss each, on first use. *)
let fresh_sizes reqs =
  List.length
    (List.sort_uniq compare
       (List.filter_map
          (fun r -> if Array.mem r.size recurring then None else Some r.size)
          (Array.to_list reqs)))
