let () =
  Alcotest.run "s4o"
    (Test_tensor.suite @ Test_ops.suite @ Test_core.suite @ Test_sil.suite @ Test_device.suite
   @ Test_xla.suite @ Test_obs.suite @ Test_profiling.suite
   @ Test_runtimes.suite @ Test_diff_tensor.suite
   @ Test_nn.suite @ Test_data.suite @ Test_mvs.suite @ Test_spline.suite
   @ Test_mobile.suite @ Test_frameworks.suite @ Test_serve.suite
   @ Test_analysis.suite @ Test_integration.suite)
