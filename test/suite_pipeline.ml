(* End-to-end tests of the Grapple pipeline and the four checkers: the
   paper's worked examples, path sensitivity, context sensitivity, and the
   statistics plumbing the benchmarks rely on. *)

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-pipe-%d-%d" (Unix.getpid ()) !counter)

let check_src ?(checkers = Checkers.all ()) ?(track_null = false)
    ?(triage = false) src =
  let program = Jir.Resolve.parse_exn src in
  let workdir = fresh_workdir () in
  let prefilter_properties =
    if triage then
      List.filter_map
        (fun (c : Checkers.t) ->
          match c.Checkers.kind with
          | `Typestate fsm -> Some fsm
          | `Exception_walk _ -> None)
        checkers
    else []
  in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      track_null;
      prefilter_properties }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, props, _ = Checkers.run_all_scheduled prepared checkers in
  (prepared, results, props)

let reports_of name results =
  match List.assoc_opt name results with Some r -> r | None -> []

let kinds rs =
  List.map
    (fun (r : Grapple.Report.t) ->
      match r.Grapple.Report.kind with
      | Grapple.Report.Leak _ -> "leak"
      | Grapple.Report.Error_state _ -> "error"
      | Grapple.Report.Unhandled_exception _ -> "exn"
      | Grapple.Report.Inconclusive _ -> "inconclusive")
    rs
  |> List.sort compare

let test_figure3b_leak () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.io () ] {|
class Main {
  void main(int a) {
    FileWriter out = null;
    FileWriter o = null;
    int x = a;
    int y = x;
    if (x >= 0) {
      out = new FileWriter();
      o = out;
      y = y - 1;
    } else {
      y = y + 1;
    }
    if (y > 0) {
      out.write(x);
      o.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  (match reports_of "io" results with
  | [ r ] ->
      Alcotest.(check (list string)) "exactly the paper's leak" [ "leak" ]
        (kinds [ r ]);
      (* the witness is the x = 0 case the paper walks through *)
      Alcotest.(check (list (pair string int))) "witness"
        [ ("Main.main::a", 0) ] r.Grapple.Report.witness
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected one warning, got %d" (List.length rs)))

let test_path_sensitivity_prunes () =
  (* close guarded by the same condition as the allocation: safe *)
  let _, results, _ =
    check_src ~checkers:[ Checkers.io () ] {|
class Main {
  void main(int x) {
    FileWriter out = null;
    if (x >= 0) {
      out = new FileWriter();
    }
    if (x < 0) {
      out.close();
      out.write(1);
    } else {
      out.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "no warning" [] (kinds (reports_of "io" results))

let test_use_after_close () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.io () ] {|
class Main {
  void main(int x) {
    FileWriter w = new FileWriter();
    w.close();
    w.write(1);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "error state" [ "error" ]
    (kinds (reports_of "io" results))

let test_context_sensitivity () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.io () ] {|
class H {
  FileWriter make(int n) {
    FileWriter w = new FileWriter();
    return w;
  }
  void closeIt(FileWriter f) {
    f.close();
    return;
  }
}
class Main {
  void main(int x) {
    H h = new H();
    FileWriter a = h.make(x);
    FileWriter b = h.make(x);
    h.closeIt(a);
    return;
  }
}
entry Main.main;
|}
  in
  (* only the clone feeding b leaks; a's clone is closed through closeIt *)
  Alcotest.(check (list string)) "one leak" [ "leak" ]
    (kinds (reports_of "io" results))

let test_heap_alias_close () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.io () ] {|
class Main {
  void main(int x) {
    Holder h = new Holder();
    FileWriter w = new FileWriter();
    h.res = w;
    FileWriter u = h.res;
    u.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "closed through the alias" []
    (kinds (reports_of "io" results))

let test_socket_exception_leak () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.socket () ] {|
class Main {
  void main(int addr) {
    Socket s = new Socket();
    try {
      s.connect(addr);
      s.close();
    } catch (IOException e) {
      int logged = 1;
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "exception-path leak" [ "leak" ]
    (kinds (reports_of "socket" results))

let test_socket_exception_closed_in_handler () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.socket () ] {|
class Main {
  void main(int addr) {
    Socket s = new Socket();
    try {
      s.connect(addr);
      s.close();
    } catch (IOException e) {
      s.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "handler closes" []
    (kinds (reports_of "socket" results))

let test_lock_misuse () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.lock () ] {|
class Main {
  void main(int x) {
    ReentrantLock l = new ReentrantLock();
    l.unlock();
    l.lock();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "misordered" [ "error" ]
    (kinds (reports_of "lock" results))

let test_exception_escapes () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.exception_ () ] {|
class Deep {
  void risky(int n) throws Boom {
    if (n > 0) {
      throw new Boom();
    }
    return;
  }
}
class Mid {
  void call(int n) throws Boom {
    Deep.risky(n);
    return;
  }
}
class Main {
  void main(int n) {
    Mid.call(n);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "escapes" [ "exn" ]
    (kinds (reports_of "exception" results))

let test_exception_handled_somewhere () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.exception_ () ] {|
class Deep {
  void risky(int n) throws Boom {
    if (n > 0) {
      throw new Boom();
    }
    return;
  }
}
class Main {
  void main(int n) {
    try {
      Deep.risky(n);
    } catch (Boom b) {
      int handled = 1;
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "handled" []
    (kinds (reports_of "exception" results))

let test_exception_infeasible_throw () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.exception_ () ] {|
class Main {
  void main(int n) {
    int x = n * 2;
    if (x > n + n) {
      throw new Boom();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "infeasible throw pruned" []
    (kinds (reports_of "exception" results))

let test_reconfigure_both_channels_leak () =
  (* the Figure 1 dance as a pipeline-level scenario: both the old and the
     new channel leak on the exception path, and nothing else is reported *)
  let _, results, _ =
    check_src ~checkers:[ Checkers.socket () ] {|
class Main {
  void reconfigure(int addr) {
    ServerSocketChannel oldSS = new ServerSocketChannel();
    oldSS.bind(addr);
    try {
      ServerSocketChannel ss = new ServerSocketChannel();
      ss.bind(addr);
      ss.configureBlocking(0);
      oldSS.close();
      ss.close();
    } catch (IOException e) {
      int logged = 1;
    }
    return;
  }
}
entry Main.reconfigure;
|}
  in
  Alcotest.(check (list string)) "two leaks" [ "leak"; "leak" ]
    (kinds (reports_of "socket" results))

let test_report_trace_present () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.io () ] {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    return;
  }
}
entry Main.main;
|}
  in
  match reports_of "io" results with
  | [ r ] ->
      Alcotest.(check bool) "trace recovered" true
        (r.Grapple.Report.trace <> [])
  | _ -> Alcotest.fail "expected one warning"

let test_null_deref () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.null () ] ~track_null:true {|
class Main {
  void main(int p) {
    FileWriter w = null;
    if (p > 0) {
      w = new FileWriter();
    }
    w.write(p);
    return;
  }
  void safe(int p) {
    FileWriter w = null;
    if (p > 0) {
      w = new FileWriter();
    }
    if (p > 0) {
      w.write(p);
    }
    return;
  }
}
entry Main.main;
entry Main.safe;
|}
  in
  (* main dereferences the null when p <= 0; safe's guard makes the null
     path infeasible *)
  Alcotest.(check (list string)) "one null deref" [ "error" ]
    (kinds (reports_of "null" results))

let test_stats_populated () =
  let prepared, _, props =
    check_src {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  let s = Grapple.Pipeline.stats prepared props in
  Alcotest.(check bool) "vertices counted" true (s.Grapple.Pipeline.n_vertices > 0);
  Alcotest.(check bool) "edges grow" true
    (s.Grapple.Pipeline.n_edges_after >= s.Grapple.Pipeline.n_edges_before);
  Alcotest.(check bool) "partitions" true (s.Grapple.Pipeline.n_partitions > 0);
  Alcotest.(check bool) "iterations" true (s.Grapple.Pipeline.n_iterations > 0);
  Alcotest.(check bool) "breakdown has 4 components" true
    (List.length s.Grapple.Pipeline.breakdown = 4)

(* ---------------- triage tiers keep local-resource reports ---------------- *)

(* Single-method FileWriter programs, checked with every triage tier on:
   a branch, a local alias, a call argument, a field store, a loop, and an
   infeasible write-after-close.  Each row pins the warnings (checker,
   kind, class, allocation line) the summary tier and the engine must
   reach between them, and is one test case in the named suite.  The
   "analysis escape ..." names are those of the unit tests of the former
   escape tier, which resolved these programs before the summary tier and
   the engine took them over. *)
let triage_programs =
  [ ( "analysis", "escape qualifies",
      {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    if (p > 0) {
      w.close();
    }
    return;
  }
}
entry Main.main;
|},
      [ ("io", "leak (ends in Open)", "FileWriter", 4) ] );
    ( "analysis", "escape aliasing",
      {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    FileWriter u = w;
    u.close();
    return;
  }
}
entry Main.main;
|},
      [] );
    ( "analysis", "escape call arg",
      {|
class H { void take(FileWriter f) { f.close(); return; } }
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    H.take(w);
    return;
  }
}
entry Main.main;
|},
      [] );
    ( "analysis", "escape field store",
      {|
class Main {
  void main(int p) {
    Holder h = new Holder();
    FileWriter w = new FileWriter();
    h.res = w;
    w.close();
    return;
  }
}
entry Main.main;
|},
      [] );
    ( "analysis", "escape loop",
      {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    int i = 0;
    while (i < 2) {
      i = i + 1;
    }
    w.close();
    return;
  }
}
entry Main.main;
|},
      [] );
    ( "pipeline", "prefilter leak detected",
      {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    w.write(a);
    return;
  }
}
entry Main.main;
|},
      [ ("io", "leak (ends in Open)", "FileWriter", 4) ] );
    ( "pipeline", "prefilter path sensitive",
      {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    int z = p - p;
    w.close();
    if (z > 0) {
      w.write(1);
    }
    return;
  }
}
entry Main.main;
|},
      [] ) ]

let check_triage_program src expected () =
  let _, results, _ = check_src ~checkers:[ Checkers.io () ] ~triage:true src in
  let got =
    List.map
      (fun (r : Grapple.Report.t) ->
        ( r.Grapple.Report.checker,
          Grapple.Report.kind_to_string r.Grapple.Report.kind,
          r.Grapple.Report.cls,
          r.Grapple.Report.alloc_at.Jir.Ast.line ))
      (reports_of "io" results)
  in
  let key (c, k, cls, l) = ((c, k), (cls, l)) in
  Alcotest.(check (list (pair (pair string string) (pair string int))))
    "reports" (List.map key expected) (List.map key got)

let triage_cases suite =
  List.filter_map
    (fun (s, name, src, expected) ->
      if s = suite then
        Some (Alcotest.test_case name `Quick (check_triage_program src expected))
      else None)
    triage_programs

let test_report_dedup () =
  let r kind site =
    { Grapple.Report.checker = "io"; kind; cls = "FileWriter";
      alloc_at = { Jir.Ast.file = "f"; line = 3 }; site;
      context = []; witness = []; trace = [] }
  in
  let reports =
    [ r (Grapple.Report.Leak "Open") None;
      r (Grapple.Report.Leak "Open") None;
      r (Grapple.Report.Error_state "Error") None;
      r (Grapple.Report.Error_state "Error")
        (Some { Jir.Ast.file = "f"; line = 9 }) ]
  in
  let deduped = Grapple.Report.dedup reports in
  Alcotest.(check int) "two distinct warnings" 2 (List.length deduped);
  (* the error variant with a site is preferred *)
  Alcotest.(check bool) "sited report kept" true
    (List.exists
       (fun (r : Grapple.Report.t) ->
         match (r.Grapple.Report.kind, r.Grapple.Report.site) with
         | Grapple.Report.Error_state _, Some _ -> true
         | _ -> false)
       deduped)

let suite =
  [ Alcotest.test_case "figure 3b leak" `Quick test_figure3b_leak;
    Alcotest.test_case "path sensitivity prunes" `Quick test_path_sensitivity_prunes;
    Alcotest.test_case "use after close" `Quick test_use_after_close;
    Alcotest.test_case "context sensitivity" `Quick test_context_sensitivity;
    Alcotest.test_case "heap alias close" `Quick test_heap_alias_close;
    Alcotest.test_case "socket exception leak" `Quick test_socket_exception_leak;
    Alcotest.test_case "socket handler closes" `Quick
      test_socket_exception_closed_in_handler;
    Alcotest.test_case "lock misuse" `Quick test_lock_misuse;
    Alcotest.test_case "exception escapes" `Quick test_exception_escapes;
    Alcotest.test_case "exception handled" `Quick test_exception_handled_somewhere;
    Alcotest.test_case "infeasible throw pruned" `Quick
      test_exception_infeasible_throw;
    Alcotest.test_case "reconfigure leaks both channels" `Quick
      test_reconfigure_both_channels_leak;
    Alcotest.test_case "report trace present" `Quick test_report_trace_present;
    Alcotest.test_case "null dereference" `Quick test_null_deref;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "report dedup" `Quick test_report_dedup ]
  @ triage_cases "pipeline"
