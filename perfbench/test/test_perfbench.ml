(* The benchmark's own tests: the request-mix generator, the quantiles it
   reports (read through [S4o_obs.Metrics]), and the timing functor's
   transparency. *)

open S4o_tensor
open Perfbench

let mix seed = Mix.generate (Prng.create seed) ~n:400 ~pool:128

let test_mix_repeats () =
  Alcotest.(check bool) "same seed, same requests" true (mix 7 = mix 7);
  Alcotest.(check bool) "another seed, other requests" false (mix 7 = mix 8)

let test_mix_shape () =
  let reqs = mix 3 in
  Array.iter
    (fun (r : Mix.request) ->
      Alcotest.(check bool) "size in 1..max_size" true (r.size >= 1 && r.size <= Mix.max_size);
      Alcotest.(check bool) "slice inside the pool" true (r.offset >= 0 && r.offset + r.size <= 128))
    reqs;
  let recurring =
    Array.fold_left (fun n (r : Mix.request) -> if Array.mem r.size Mix.recurring then n + 1 else n) 0 reqs
  in
  let share = float_of_int recurring /. 400.0 in
  Alcotest.(check bool) "most requests recur" true (share > 0.75 && share < 0.9);
  let fresh = Mix.fresh_sizes reqs and distinct = Mix.distinct_sizes reqs in
  Alcotest.(check bool) "some sizes are fresh" true (fresh > 10);
  Alcotest.(check bool) "distinct = fresh + recurring seen" true
    (distinct >= fresh && distinct <= fresh + Array.length Mix.recurring)

let test_mix_counts () =
  let reqs =
    Array.map (fun size -> { Mix.size; offset = 0 }) [| 1; 3; 3; 8; 64; 2; 64 |]
  in
  Alcotest.(check int) "distinct sizes" 5 (Mix.distinct_sizes reqs);
  Alcotest.(check int) "fresh sizes" 2 (Mix.fresh_sizes reqs)

let test_mix_rejects_small_pool () =
  Alcotest.check_raises "pool below max_size"
    (Invalid_argument "Mix.generate: pool smaller than max_size") (fun () ->
      ignore (Mix.generate (Prng.create 1) ~n:1 ~pool:10))

let test_mix_recurring_are_buckets () =
  Alcotest.(check (array int)) "the default server's buckets" [| 1; 2; 4; 8 |] Mix.recurring

let close = Alcotest.float 1e-12

let test_quantiles () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check close "median" 3.0 (Probe.median xs);
  Alcotest.check close "p99 interpolates below the maximum" 4.96 (Probe.quantile 0.99 xs);
  Alcotest.check close "even count median" 2.5 (Probe.median [| 4.0; 1.0; 2.0; 3.0 |])

module T = Backends.Timed (Naive_backend)

let test_timed_is_transparent () =
  Probe.reset ();
  let rng = Prng.create 2 in
  let x = Dense.rand_normal rng [| 2; 5; 5; 3 |] and f = Dense.rand_normal rng [| 3; 3; 3; 4 |] in
  let y = T.conv2d ~padding:Convolution.Same x f in
  Alcotest.(check bool) "same result" true
    (Dense.equal y (Naive_backend.conv2d ~padding:Convolution.Same x f));
  ignore (T.add y y);
  Alcotest.(check int) "conv2d counted" 1 (Probe.calls Probe.ops "conv2d");
  Alcotest.(check int) "add counted" 1 (Probe.calls Probe.ops "add");
  Alcotest.(check int) "conv shape recorded" 1 (Hashtbl.length Probe.conv_calls);
  let flops = (Hashtbl.find Probe.ops "conv2d").Probe.flops in
  Alcotest.check close "conv flops" (2.0 *. 2.0 *. 5.0 *. 5.0 *. 4.0 *. 27.0) flops

let () =
  Alcotest.run "perfbench"
    [
      ( "mix",
        [
          Alcotest.test_case "repeats per seed" `Quick test_mix_repeats;
          Alcotest.test_case "sizes, offsets and shares" `Quick test_mix_shape;
          Alcotest.test_case "distinct and fresh counts" `Quick test_mix_counts;
          Alcotest.test_case "rejects a small pool" `Quick test_mix_rejects_small_pool;
          Alcotest.test_case "recurring sizes are the batcher's buckets" `Quick
            test_mix_recurring_are_buckets;
        ] );
      ("quantiles", [ Alcotest.test_case "median and p99 of durations" `Quick test_quantiles ]);
      ("backends", [ Alcotest.test_case "timed naive is transparent" `Quick test_timed_is_transparent ]);
    ]
