(* Tests for the interprocedural layer (ISSUE 2): SCC condensation order,
   FSM transfer relations, the summary-based bottom-up solver, the
   whole-program lints, and the pipeline's summary pre-filter. *)

let parse src = Jir.Resolve.parse_exn src

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-interproc-%d-%d" (Unix.getpid ()) !counter)

(* ---------------- SCC condensation ---------------- *)

let chain_src = {|
class B { void g(int p) { return; } }
class A { void f(int p) { B.g(p); return; } }
class Main { void main(int p) { A.f(p); return; } }
entry Main.main;
|}

let test_sccs_chain () =
  let cg = Jir.Callgraph.build (parse chain_src) in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  Alcotest.(check bool) "all components singleton" true
    (List.for_all (fun c -> List.length c = 1) sccs);
  let order = List.concat sccs in
  let pos x =
    match List.find_index (( = ) x) order with
    | Some i -> i
    | None -> Alcotest.fail ("missing from order: " ^ x)
  in
  Alcotest.(check bool) "callee before caller (B.g < A.f)" true
    (pos "B.g" < pos "A.f");
  Alcotest.(check bool) "callee before caller (A.f < Main.main)" true
    (pos "A.f" < pos "Main.main")

let mutual_src = {|
class B { void g(int p) { A.f(p); return; } }
class A { void f(int p) { if (p > 0) { B.g(p); } return; } }
class Main { void main(int p) { A.f(p); return; } }
entry Main.main;
|}

let test_sccs_mutual_recursion () =
  let cg = Jir.Callgraph.build (parse mutual_src) in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  let cycle =
    match List.find_opt (fun c -> List.mem "A.f" c) sccs with
    | Some c -> c
    | None -> Alcotest.fail "A.f not in any component"
  in
  Alcotest.(check bool) "A.f and B.g share a component" true
    (List.mem "B.g" cycle);
  let main_pos =
    match List.find_index (fun c -> List.mem "Main.main" c) sccs with
    | Some i -> i
    | None -> Alcotest.fail "Main.main not in any component"
  in
  let cycle_pos =
    match List.find_index (fun c -> List.mem "A.f" c) sccs with
    | Some i -> i
    | None -> assert false
  in
  Alcotest.(check bool) "cycle component precedes its caller" true
    (cycle_pos < main_pos)

let test_sccs_self_recursion () =
  let cg =
    Jir.Callgraph.build
      (parse {|
class H { void rec(int n) { if (n > 0) { H.rec(n - 1); } return; } }
class Main { void main(int p) { H.rec(p); return; } }
entry Main.main;
|})
  in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  Alcotest.(check bool) "self-recursive method is its own component" true
    (List.mem [ "H.rec" ] sccs)

(* ---------------- FSM transfer relations ---------------- *)

let io = Checkers.Specs.io_fsm ()

let state name =
  let rec go i =
    if i >= Fsm.n_states io then Alcotest.fail ("no state " ^ name)
    else if Fsm.state_name io i = name then i
    else go (i + 1)
  in
  go 0

let states_of rel from =
  let v = Array.make (Fsm.n_states io) false in
  v.(from) <- true;
  let img = Fsm.rel_apply rel v in
  List.filter (fun s -> img.(s)) (List.init (Fsm.n_states io) Fun.id)
  |> List.map (Fsm.state_name io)
  |> List.sort compare

let test_rel_compose_apply () =
  let write = Fsm.rel_of_event io "write" in
  let close = Fsm.rel_of_event io "close" in
  Alcotest.(check (list string)) "write keeps Open open" [ "Open" ]
    (states_of write (state "Open"));
  Alcotest.(check (list string)) "write; close closes" [ "Closed" ]
    (states_of (Fsm.rel_compose write close) (state "Open"));
  Alcotest.(check (list string)) "close; write errs" [ "Error" ]
    (states_of (Fsm.rel_compose close write) (state "Open"));
  let joined = Fsm.rel_join (Fsm.rel_identity io) close in
  Alcotest.(check (list string)) "join keeps both outcomes"
    [ "Closed"; "Open" ]
    (states_of joined (state "Open"))

let test_rel_universal_and_leq () =
  let u = Fsm.rel_universal io in
  Alcotest.(check bool) "identity below universal" true
    (Fsm.rel_leq (Fsm.rel_identity io) u);
  Alcotest.(check bool) "any event below universal" true
    (Fsm.rel_leq (Fsm.rel_of_event io "close") u);
  Alcotest.(check bool) "universal not below identity" false
    (Fsm.rel_leq u (Fsm.rel_identity io))

(* ---------------- summary fixpoints ---------------- *)

let rec_close_src = {|
class H {
  void rec(FileWriter f, int n) {
    if (n > 0) {
      H.rec(f, n - 1);
    } else {
      f.close();
    }
    return;
  }
}
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    H.rec(w, p);
    return;
  }
}
entry Main.main;
|}

let test_summary_recursive_fixpoint () =
  let r = Analysis.Summaries.analyze io (parse rec_close_src) in
  Alcotest.(check bool) "recursive component iterated" true
    (r.Analysis.Summaries.n_scc_iterations
     > List.length (Hashtbl.fold (fun k _ acc -> k :: acc) r.Analysis.Summaries.summaries []));
  let s = Hashtbl.find r.Analysis.Summaries.summaries "H.rec" in
  let ps = s.Analysis.Summaries.s_params.(0) in
  Alcotest.(check (list string)) "every path through rec closes" [ "Closed" ]
    (states_of ps.Analysis.Summaries.ps_rel (state "Open"));
  (* the allocation in Main is closed on every path and never escapes *)
  Alcotest.(check int) "alloc proved clean" 1
    (List.length (Analysis.Summaries.clean_sids r))

(* ---------------- interprocedural nullness ---------------- *)

let null_ret_src = {|
class H {
  FileWriter mk(int n) {
    FileWriter r = null;
    return r;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    w.write(1);
    return;
  }
}
entry Main.main;
|}

let lints ds = List.map (fun d -> d.Analysis.Lint.lint) ds

let test_interproc_null_via_return () =
  let program = parse null_ret_src in
  Alcotest.(check (list string)) "summary lint sees the flow"
    [ "interproc-null" ]
    (lints (Analysis.Interproc.null_diags program));
  (* the acceptance criterion: the intraprocedural lints miss this bug *)
  Alcotest.(check bool) "intraprocedural linter is blind to it" true
    (not (List.mem "null-deref"
            (lints (Analysis.Lint.check_program program))))

let test_interproc_null_via_param () =
  let program =
    parse {|
class H { void use(FileWriter f) { f.write(1); return; } }
class Main {
  void main(int p) {
    FileWriter w = null;
    H.use(w);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "null argument into a dereferencing callee"
    [ "interproc-null" ]
    (lints (Analysis.Interproc.null_diags program))

let test_interproc_null_negative () =
  let program =
    parse {|
class H {
  FileWriter mk(int n) {
    FileWriter r = new FileWriter();
    return r;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    w.write(1);
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "non-null return stays quiet" []
    (lints (Analysis.Interproc.null_diags program))

(* ---------------- the interproc-leak lint ---------------- *)

let leak_src = {|
class H {
  FileWriter openLog(int n) {
    FileWriter hw = new FileWriter();
    return hw;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.openLog(p);
    w.write(p);
    return;
  }
}
entry Main.main;
|}

let test_interproc_leak_positive () =
  match Analysis.Summaries.leak_diags [ io ] (parse leak_src) with
  | [ d ] ->
      Alcotest.(check string) "lint slug" "interproc-leak" d.Analysis.Lint.lint;
      Alcotest.(check int) "reported at the helper's allocation" 4
        d.Analysis.Lint.at.Jir.Ast.line
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected one leak diag, got %d" (List.length ds))

let test_interproc_leak_negative_closed () =
  let program =
    parse {|
class H {
  FileWriter openLog(int n) {
    FileWriter hw = new FileWriter();
    return hw;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.openLog(p);
    w.write(p);
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "closed on every path: no lint" 0
    (List.length (Analysis.Summaries.leak_diags [ io ] program))

let test_interproc_leak_branch_is_may_not_must () =
  (* close skipped on one branch: the engine reports this (a may-leak with
     a feasible witness), the all-paths lint must not *)
  let program =
    parse {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    w.write(p);
    if (p > 10) {
      w.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "may-leak is not must-leak" 0
    (List.length (Analysis.Summaries.leak_diags [ io ] program))

(* ---------------- pipeline summary pre-filter ---------------- *)

let run_pipeline ?(summary_prefilter = true) src =
  let program = parse src in
  let workdir = fresh_workdir () in
  let fsm = Checkers.Specs.io_fsm () in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = [ fsm ];
      summary_prefilter }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let pr = Grapple.Pipeline.check_property prepared fsm in
  let stats = Grapple.Pipeline.stats prepared [ pr ] in
  (stats, pr.Grapple.Pipeline.reports)

(* helper-created, helper-written, caller-closed: escapes its method but
   provably clean interprocedurally *)
let clean_via_helper_src = {|
class H {
  FileWriter mk(int n) {
    FileWriter hw = new FileWriter();
    hw.write(n);
    return hw;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    w.close();
    return;
  }
}
entry Main.main;
|}

let report_sig (rs : Grapple.Report.t list) =
  List.map
    (fun (r : Grapple.Report.t) ->
      Grapple.Report.to_string r)
    rs
  |> List.sort compare

let test_summary_prefilter_prunes_escaping_alloc () =
  let s_on, r_on = run_pipeline clean_via_helper_src in
  let s_off, r_off =
    run_pipeline ~summary_prefilter:false clean_via_helper_src
  in
  Alcotest.(check int) "summary filter prunes the allocation" 1
    s_on.Grapple.Pipeline.n_summary_pruned;
  Alcotest.(check int) "hatch disables it" 0
    s_off.Grapple.Pipeline.n_summary_pruned;
  Alcotest.(check (list string)) "reports identical either way"
    (report_sig r_off) (report_sig r_on);
  Alcotest.(check (list string)) "and there are none" [] (report_sig r_on);
  Alcotest.(check bool) "graphs shrink" true
    (s_on.Grapple.Pipeline.n_vertices < s_off.Grapple.Pipeline.n_vertices)

let test_summary_prefilter_keeps_buggy_alloc () =
  let s_on, r_on = run_pipeline leak_src in
  let _, r_off = run_pipeline ~summary_prefilter:false leak_src in
  Alcotest.(check int) "leaking allocation not pruned" 0
    s_on.Grapple.Pipeline.n_summary_pruned;
  Alcotest.(check (list string)) "leak reported identically"
    (report_sig r_off) (report_sig r_on);
  Alcotest.(check bool) "there is a leak report" true (r_on <> [])

(* ---------------- determinism ---------------- *)

let test_summaries_deterministic () =
  let subject () = (Workload.Generator.mini_hadoop ()).Workload.Generator.program in
  let render p = Analysis.Summaries.render (Analysis.Summaries.analyze io p) in
  let a = render (subject ()) in
  let b = render (subject ()) in
  Alcotest.(check bool) "summaries and facts byte-identical" true (a = b);
  let s1, _ = run_pipeline clean_via_helper_src in
  let s2, _ = run_pipeline clean_via_helper_src in
  Alcotest.(check int) "n_summary_pruned stable across runs"
    s1.Grapple.Pipeline.n_summary_pruned s2.Grapple.Pipeline.n_summary_pruned

(* workload integration: the generated subjects carry interproc-null and
   interproc-leak expectations that only the --interproc lints satisfy *)
let test_workload_interproc_expectations () =
  let s = Workload.Generator.mini_hadoop () in
  let program = s.Workload.Generator.program in
  let diags =
    Analysis.Summaries.interproc_diags ~fsms:(Checkers.fsms ()) program
  in
  let ls =
    Workload.Scoring.score_lints ~checker:"interproc"
      ~expected:s.Workload.Generator.expected diags
  in
  Alcotest.(check bool) "planted interprocedural bugs found" true
    (ls.Workload.Scoring.ltp >= 1);
  Alcotest.(check int) "no misses" 0 ls.Workload.Scoring.lfn;
  Alcotest.(check int) "no false positives" 0 ls.Workload.Scoring.lfp;
  (* the same expectations are invisible to the intraprocedural linter *)
  let intra = Analysis.Lint.check_program program in
  let ls_intra =
    Workload.Scoring.score_lints ~checker:"interproc"
      ~expected:s.Workload.Generator.expected intra
  in
  Alcotest.(check int) "intraprocedural lints find none of them" 0
    ls_intra.Workload.Scoring.ltp

let suite =
  [ Alcotest.test_case "sccs chain order" `Quick test_sccs_chain;
    Alcotest.test_case "sccs mutual recursion" `Quick
      test_sccs_mutual_recursion;
    Alcotest.test_case "sccs self recursion" `Quick test_sccs_self_recursion;
    Alcotest.test_case "rel compose apply" `Quick test_rel_compose_apply;
    Alcotest.test_case "rel universal leq" `Quick test_rel_universal_and_leq;
    Alcotest.test_case "summary recursive fixpoint" `Quick
      test_summary_recursive_fixpoint;
    Alcotest.test_case "interproc null via return" `Quick
      test_interproc_null_via_return;
    Alcotest.test_case "interproc null via param" `Quick
      test_interproc_null_via_param;
    Alcotest.test_case "interproc null negative" `Quick
      test_interproc_null_negative;
    Alcotest.test_case "interproc leak positive" `Quick
      test_interproc_leak_positive;
    Alcotest.test_case "interproc leak negative" `Quick
      test_interproc_leak_negative_closed;
    Alcotest.test_case "interproc leak may not must" `Quick
      test_interproc_leak_branch_is_may_not_must;
    Alcotest.test_case "summary prefilter prunes escaping alloc" `Quick
      test_summary_prefilter_prunes_escaping_alloc;
    Alcotest.test_case "summary prefilter keeps buggy alloc" `Quick
      test_summary_prefilter_keeps_buggy_alloc;
    Alcotest.test_case "summaries deterministic" `Quick
      test_summaries_deterministic;
    Alcotest.test_case "workload interproc expectations" `Quick
      test_workload_interproc_expectations ]
