(* The soundness oracle: judge a static run against a concrete one.

   Direction (a), no false negatives: every error state or leak a concrete
   execution actually exhibited must appear in the static report — through
   whatever triage tier (summary / alias) the allocation took and at any
   worker/shard count.  The concrete trace is resolved with the same
   [Fsm.call_event]/[store_event]/[return_event] matchers the graph
   builder and the summaries share, so a divergence is a real pipeline
   bug, never an event-vocabulary mismatch.

   Direction (b), witness feasibility: every static report must be
   *about* something real — an allocation of a class the property tracks
   at the reported site (or, for exception reports, an explicit [throw] of
   the reported class at the reported line), with a claimed outcome the
   property FSM can actually produce (error state reachable, or a
   reachable non-accepting end-of-life state for leaks).  This is a
   structural check of the report against program + FSM; path feasibility
   beyond it is exactly what the SMT layer already decides.

   Degraded instances are excluded from (a): an [Inconclusive] report is
   the pipeline's explicit admission that the checker did not finish, so
   the harness treats that checker's coverage gap as declared, not as a
   false negative. *)

type violation = {
  v_checker : string;
  v_kind : [ `Error | `Leak | `Exn ];
  v_cls : string;   (* tracked class, or the exception class for [`Exn] *)
  v_line : int;     (* allocation line, or the throw line for [`Exn] *)
  v_state : string; (* FSM state name reached (diagnostics) *)
  v_events : string list;  (* resolved event names (diagnostics) *)
}

let kind_name = function
  | `Error -> "error-state"
  | `Leak -> "leak"
  | `Exn -> "unhandled-exception"

let violation_to_string (v : violation) =
  Printf.sprintf "%s %s %s at line %d (state %s; events: %s)" v.v_checker
    (kind_name v.v_kind) v.v_cls v.v_line v.v_state
    (String.concat "," v.v_events)

(* Resolve one object's raw trace against one property: the recorded
   statements replayed through the FSM's own event matchers. *)
let resolved_events (fsm : Fsm.t) (o : Interp.obj) : string list =
  List.rev o.Interp.o_events
  |> List.filter_map (fun (e : Interp.event) ->
         match e.Interp.ev_kind with
         | Interp.Ecall c -> Fsm.call_event fsm ~meth:e.Interp.ev_meth c
         | Interp.Estore src ->
             Fsm.store_event fsm ~meth:e.Interp.ev_meth ~src
         | Interp.Ereturn v -> Fsm.return_event fsm ~meth:e.Interp.ev_meth v)

(* Concrete typestate violations of one run: an object that stepped into
   the error state (reported whatever the exit), or that a *normally*
   exiting program left in a non-accepting state (leaks are reported at
   normal exits only — an uncaught exception kills the process, which
   reclaims the resource — and a fuel-truncated run proves nothing about
   end of life). *)
let typestate_violations (fsm : Fsm.t) (out : Interp.outcome) :
    violation list =
  List.filter_map
    (fun (o : Interp.obj) ->
      if not (Fsm.is_tracked fsm o.Interp.o_cls) then None
      else
        let events = resolved_events fsm o in
        let final, hit_error =
          List.fold_left
            (fun (st, err) ev ->
              let st' = Fsm.step fsm st ev in
              (st', err || st' = fsm.Fsm.error))
            (fsm.Fsm.initial, fsm.Fsm.initial = fsm.Fsm.error)
            events
        in
        let mk kind state =
          Some
            { v_checker = fsm.Fsm.name;
              v_kind = kind;
              v_cls = o.Interp.o_cls;
              v_line = o.Interp.o_at.Jir.Ast.line;
              v_state = Fsm.state_name fsm state;
              v_events = events }
        in
        if hit_error then mk `Error fsm.Fsm.error
        else if
          out.Interp.exit_ = Interp.Exit_normal
          && not (Fsm.is_accepting fsm final)
        then mk `Leak final
        else None)
    out.Interp.objects

(* Concrete exception violations: the run died from an exception whose
   origin is an explicit [throw] statement.  Exceptions injected at
   library calls ([throw_at = None]) are excluded: the exception walks
   report explicit throws only.  One violation per exception-walk checker
   in play (the plain walk over-approximates the handler-aware one, so a
   concretely-escaping throw must be reported by both). *)
let exception_violations ~(exn_checkers : string list)
    (out : Interp.outcome) : violation list =
  match out.Interp.exit_ with
  | Interp.Exit_uncaught { exn_class; throw_at = Some at } ->
      List.map
        (fun name ->
          { v_checker = name;
            v_kind = `Exn;
            v_cls = exn_class;
            v_line = at.Jir.Ast.line;
            v_state = "<uncaught>";
            v_events = [] })
        exn_checkers
  | _ -> []

let concrete_violations ~(fsms : Fsm.t list) ~(exn_checkers : string list)
    (out : Interp.outcome) : violation list =
  List.concat_map (fun fsm -> typestate_violations fsm out) fsms
  @ exception_violations ~exn_checkers out

(* ---------------- direction (a): coverage ---------------- *)

let report_covers (v : violation) (r : Grapple.Report.t) =
  r.Grapple.Report.alloc_at.Jir.Ast.line = v.v_line
  &&
  match (v.v_kind, r.Grapple.Report.kind) with
  | `Error, Grapple.Report.Error_state _ | `Leak, Grapple.Report.Leak _ ->
      r.Grapple.Report.cls = v.v_cls
  | `Exn, Grapple.Report.Unhandled_exception e -> e = v.v_cls
  | _ -> false

let checker_degraded (reports : Grapple.Report.t list) =
  List.exists
    (fun (r : Grapple.Report.t) ->
      match r.Grapple.Report.kind with
      | Grapple.Report.Inconclusive _ -> true
      | _ -> false)
    reports

(* Concrete violations the static run failed to report — the soundness
   failures.  Violations of a degraded checker are dropped: its coverage
   gap is explicit in the output. *)
let uncovered ~(reports : (string * Grapple.Report.t list) list)
    (violations : violation list) : violation list =
  List.filter
    (fun v ->
      match List.assoc_opt v.v_checker reports with
      | None ->
          (* the checker did not run at all: not a soundness claim *)
          false
      | Some rs ->
          (not (checker_degraded rs))
          && not (List.exists (report_covers v) rs))
    violations

(* ---------------- direction (b): witness validity ---------------- *)

(* All FSM states reachable from the initial state over the declared
   event alphabet. *)
let reachable_states (fsm : Fsm.t) : Fsm.state list =
  let seen = Hashtbl.create 8 in
  let rec go s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s ();
      List.iter (fun ev -> go (Fsm.step fsm s ev)) fsm.Fsm.events
    end
  in
  go fsm.Fsm.initial;
  Hashtbl.fold (fun s () acc -> s :: acc) seen []

(* Allocation sites [(class, line)] and explicit throw sites
   [(exn_class, line)] of a program. *)
let program_sites (program : Jir.Ast.program) =
  let allocs = Hashtbl.create 64 and throws = Hashtbl.create 16 in
  let rhs (s : Jir.Ast.stmt) = function
    | Jir.Ast.Rnew (cls, _) ->
        Hashtbl.replace allocs (cls, s.Jir.Ast.at.Jir.Ast.line) ()
    | _ -> ()
  in
  let rec stmt (s : Jir.Ast.stmt) =
    match s.Jir.Ast.kind with
    | Jir.Ast.Decl (_, _, Some r) | Jir.Ast.Assign (_, r) -> rhs s r
    | Jir.Ast.Throw e ->
        Hashtbl.replace throws (e, s.Jir.Ast.at.Jir.Ast.line) ()
    | Jir.Ast.If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | Jir.Ast.While (_, b) -> List.iter stmt b
    | Jir.Ast.Try (b, cs) ->
        List.iter stmt b;
        List.iter
          (fun (c : Jir.Ast.catch) -> List.iter stmt c.Jir.Ast.handler)
          cs
    | _ -> ()
  in
  List.iter
    (fun (m : Jir.Ast.meth) -> List.iter stmt m.Jir.Ast.body)
    (Jir.Ast.all_methods program);
  (allocs, throws)

(* Structurally invalid reports, with reasons.  [program] is the source
   program (unrolling preserves positions, so its lines are the report
   lines). *)
let invalid_reports ~(program : Jir.Ast.program) ~(fsms : Fsm.t list)
    (reports : (string * Grapple.Report.t list) list) :
    (Grapple.Report.t * string) list =
  let allocs, throws = program_sites program in
  let fsm_of name =
    List.find_opt (fun (f : Fsm.t) -> f.Fsm.name = name) fsms
  in
  List.concat_map
    (fun (checker, rs) ->
      List.filter_map
        (fun (r : Grapple.Report.t) ->
          let line = r.Grapple.Report.alloc_at.Jir.Ast.line in
          let bad reason = Some (r, reason) in
          match r.Grapple.Report.kind with
          | Grapple.Report.Inconclusive _ -> None
          | Grapple.Report.Unhandled_exception e ->
              if Hashtbl.mem throws (e, line) then None
              else
                bad
                  (Printf.sprintf "no `throw new %s` at line %d" e line)
          | Grapple.Report.Error_state _ | Grapple.Report.Leak _ -> (
              match fsm_of checker with
              | None ->
                  bad
                    (Printf.sprintf
                       "typestate report from unknown property %S" checker)
              | Some fsm ->
                  let cls = r.Grapple.Report.cls in
                  if not (Fsm.is_tracked fsm cls) then
                    bad
                      (Printf.sprintf "%s does not track class %s" checker
                         cls)
                  else if not (Hashtbl.mem allocs (cls, line)) then
                    bad
                      (Printf.sprintf "no `new %s` at line %d" cls line)
                  else
                    let reachable = reachable_states fsm in
                    let feasible =
                      match r.Grapple.Report.kind with
                      | Grapple.Report.Error_state _ ->
                          List.mem fsm.Fsm.error reachable
                      | _ ->
                          List.exists
                            (fun s ->
                              s <> fsm.Fsm.error
                              && not (Fsm.is_accepting fsm s))
                            reachable
                    in
                    if feasible then None
                    else
                      bad
                        "the property FSM cannot produce the claimed \
                         outcome from its initial state"))
        rs)
    reports
