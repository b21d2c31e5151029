let () =
  Alcotest.run "sxsi"
    [
      Test_bits.suite;
      Test_fm.suite;
      Test_text.suite;
      Test_tree.suite;
      Test_xml.suite;
      Test_xpath.suite;
      Test_auto.suite;
      Test_engine.suite;
      Test_baseline.suite;
      Test_wordindex.suite;
      Test_bio.suite;
      Test_datagen.suite;
      Test_integration.suite;
      Test_service.suite;
      Test_obs.suite;
      Test_units.suite;
      Test_par.suite;
      Test_qos.suite;
      Test_backend.suite;
      Test_evloop.suite;
      Test_prof.suite;
      Test_materialize.suite;
    ]
