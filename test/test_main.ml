let () =
  Alcotest.run "nerpa"
    [
      ("value", Test_value.tests);
      ("zset", Test_zset.tests);
      ("obs", Test_obs.tests);
      ("builtins", Test_builtins.tests);
      ("dl-parser", Test_dl_parser.tests);
      ("dl-typecheck", Test_dl_typecheck.tests);
      ("dl-engine", Test_dl_engine.tests);
      ("dl-engine2", Test_dl_engine2.tests);
      ("dl-props", Test_dl_props.suite);
      ("dl-diff", Test_dl_diff.tests);
      ("json", Test_json.tests);
      ("ovsdb", Test_ovsdb.tests);
      ("p4", Test_p4.tests);
      ("p4-props", Test_p4_props.suite);
      ("p4-matcher", Test_p4_matcher.tests);
      ("nerpa", Test_nerpa.tests);
      ("transport", Test_transport.tests);
      ("server", Test_server.tests);
      ("binc", Test_binc.suite);
      ("l3router", Test_l3router.tests);
      ("baseline", Test_baseline.tests);
      ("equivalence", Test_equivalence.tests);
      ("ofp4", Test_ofp4.tests);
      ("fdd", Test_fdd.tests);
      ("compile_state", Test_compile_state.tests);
      ("cluster", Test_cluster.tests);
    ]
