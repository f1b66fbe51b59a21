(* Generic summary-based interprocedural solver (paper §2.1: analyses are
   driven bottom-up over the SCC condensation of the call graph).

   A client supplies a per-method summary lattice: a bottom element, an
   equality test, and an [analyze] function that computes one method's
   summary given (current) summaries for its callees.  The solver visits
   SCC components in reverse-topological order (callees before callers),
   runs a non-recursive component once, and iterates a recursive one to a
   fixpoint, so summaries of (mutually) recursive methods converge from
   bottom.  Because every client lattice is finite-height and [analyze]
   monotone, the result is the least fixpoint — the most precise sound
   summary assignment.  The SCC order and the per-method CFGs form a
   [plan] that does not depend on the client, so one plan serves every
   property and lint run over the same program.

   The context policy is configurable.  [Ctx_insensitive] merges all call
   sites of a method into one summary, exactly as the paper collapses SCCs
   and treats them context-insensitively.  [Ctx_1cfa] is a declared hook: a
   1-CFA instantiation would key the summary table by (method, call site)
   and re-run [analyze] per key; until a client needs it, it behaves like
   [Ctx_insensitive]. *)

type policy = Ctx_insensitive | Ctx_1cfa

(* ---------------- the property-independent plan ---------------- *)

(* Everything the solver needs that no client property changes: the SCC
   order, one prebuilt CFG per method, and the root set.  A caller that runs
   several clients over the same program (one per FSM property, or the two
   interprocedural lints) builds it once and shares it; the plan is never
   mutated, so clients may share it across domains. *)

type component = {
  members : (string * Cfg.t) list;  (* method id and its CFG *)
  recursive : bool;  (* several members, or one that calls itself *)
}

type plan = {
  components : component list;  (* reverse-topological: callees first *)
  shadowed : Cfg.t list;
      (* earlier definitions of a method id a later one rebinds: never
         summarized, but still observed once against the final summaries *)
  roots : (string, unit) Hashtbl.t;  (* entries and methods no one calls *)
}

let plan (cg : Jir.Callgraph.t) : plan =
  let program = cg.Jir.Callgraph.program in
  let cfgs = Hashtbl.create 256 in
  let shadowed = ref [] in
  List.iter
    (fun m ->
      let id = Jir.Ast.meth_id m in
      Option.iter
        (fun g -> shadowed := g :: !shadowed)
        (Hashtbl.find_opt cfgs id);
      Hashtbl.replace cfgs id (Cfg.build m))
    (Jir.Ast.all_methods program);
  let components =
    List.map
      (fun ids ->
        { members = List.map (fun id -> (id, Hashtbl.find cfgs id)) ids;
          recursive =
            (match ids with
            | [ id ] -> List.mem id (Jir.Callgraph.callees cg id)
            | _ -> true) })
      (Jir.Callgraph.sccs_reverse_topological cg)
  in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (cls, m) ->
      Hashtbl.replace roots (Jir.Ast.qualified_name ~cls ~meth:m) ())
    program.Jir.Ast.entries;
  List.iter
    (fun id ->
      if not (Hashtbl.mem cg.Jir.Callgraph.callers id) then
        Hashtbl.replace roots id ())
    cg.Jir.Callgraph.method_ids;
  { components; shadowed = List.rev !shadowed; roots }

let plan_of_program p = plan (Jir.Callgraph.build p)

let is_root (p : plan) id = Hashtbl.mem p.roots id

(* ---------------- the solver ---------------- *)

(* [cl_analyze] returns the method's summary and a per-method ['detail] (the
   dataflow result behind the summary).  The solver keeps a method's detail
   only until its component has converged, then hands it to the caller. *)
type ('summary, 'detail) client = {
  cl_name : string;
  cl_bottom : Jir.Ast.meth -> 'summary;
  cl_equal : 'summary -> 'summary -> bool;
  cl_analyze :
    lookup:(string -> 'summary option) -> Cfg.t -> 'summary * 'detail;
}

type 'summary result = {
  table : (string, 'summary) Hashtbl.t;  (* method id -> summary *)
  n_scc_iterations : int;                (* total component fixpoint rounds *)
}

(* [on_converged ~lookup g detail] sees every method of the program exactly
   once, with the detail of an analysis run against converged summaries:
   [lookup] answers for the method's own component and everything it calls.
   A recursive component's last round changed nothing, so each of its
   members was analyzed against the final summaries; a non-recursive
   component reads no summary of its own, so one round is final. *)
let solve ?(policy = Ctx_insensitive)
    ?(on_converged = fun ~lookup:_ (_ : Cfg.t) _ -> ()) (plan : plan)
    (client : ('s, 'd) client) : 's result =
  ignore policy;  (* Ctx_1cfa hook: same table, per-call-site keys *)
  let table = Hashtbl.create 256 in
  let lookup id = Hashtbl.find_opt table id in
  let rounds = ref 0 in
  List.iter
    (fun comp ->
      List.iter
        (fun (id, (g : Cfg.t)) ->
          Hashtbl.replace table id (client.cl_bottom g.Cfg.meth))
        comp.members;
      let rec iterate () =
        incr rounds;
        let changed, details =
          List.fold_left
            (fun (changed, details) (id, g) ->
              let s', d = client.cl_analyze ~lookup g in
              let changed =
                if client.cl_equal (Hashtbl.find table id) s' then changed
                else begin
                  Hashtbl.replace table id s';
                  true
                end
              in
              (changed, (g, d) :: details))
            (false, []) comp.members
        in
        if changed && comp.recursive then iterate () else List.rev details
      in
      List.iter (fun (g, d) -> on_converged ~lookup g d) (iterate ()))
    plan.components;
  List.iter
    (fun g -> on_converged ~lookup g (snd (client.cl_analyze ~lookup g)))
    plan.shadowed;
  { table; n_scc_iterations = !rounds }

(* ------------------------------------------------------------------ *)
(* Interprocedural nullness: null values flowing through returns and   *)
(* parameters into a dereference.  The per-method summary records the  *)
(* join of the values returned at every normal return site (so [Null]  *)
(* means "returns null on every path", matching the intraprocedural    *)
(* lint's definite-null-only discipline) and, per parameter, whether a *)
(* null argument would definitely be dereferenced inside the callee    *)
(* (transitively, through further calls).                              *)
(* ------------------------------------------------------------------ *)

type null_summary = {
  ns_ret : Nullness.value option;  (* None = bottom: no return site seen *)
  ns_deref_param : bool array;     (* param i dereferenced when passed null *)
}

let join_ret a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Nullness.join_value a b)

(* Per-run parameters of the summary-aware nullness domain: the summary
   table and the entry-value probe.  The Dataflow functor takes a closed
   module, so each solve applies it locally to a domain closed over them. *)
type null_ctx = {
  nc_lookup : string -> null_summary option;
  nc_entry : (string * Nullness.value) list;  (* parameter seed values *)
}

let call_ret_value nc (c : Jir.Ast.call) =
  let id =
    Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname
  in
  match nc.nc_lookup id with
  | Some { ns_ret = Some v; _ } -> v
  | Some { ns_ret = None; _ } ->
      (* bottom: no normal return analyzed yet (recursion) — optimistic,
         resolved by the component fixpoint *)
      Nullness.Nonnull
  | None -> Nullness.Top  (* library call *)

module Null_domain (C : sig
  val nc : null_ctx
end) =
struct
  type t = Nullness.Domain.t

  let bottom = Nullness.Domain.Unreached

  let init (_ : Cfg.t) =
    Nullness.Domain.Env
      (List.fold_left
         (fun env (v, value) -> Nullness.VM.add v value env)
         Nullness.VM.empty C.nc.nc_entry)

  let equal = Nullness.Domain.equal
  let join = Nullness.Domain.join
  let exc _ _ state = state

  let value_of_rhs env (r : Jir.Ast.rhs) =
    match r with
    | Jir.Ast.Rcall c -> call_ret_value C.nc c
    | _ -> Nullness.Domain.value_of_rhs env r

  let transfer (g : Cfg.t) node state =
    match state with
    | Nullness.Domain.Unreached -> Nullness.Domain.Unreached
    | Nullness.Domain.Env env -> (
        match g.Cfg.kinds.(node) with
        | Cfg.Stmt { kind = Jir.Ast.Decl (_, v, Some r); _ }
        | Cfg.Stmt { kind = Jir.Ast.Assign (v, r); _ } -> (
            match value_of_rhs env r with
            | Nullness.Top -> Nullness.Domain.Env (Nullness.VM.remove v env)
            | value -> Nullness.Domain.Env (Nullness.VM.add v value env))
        | Cfg.Stmt { kind = Jir.Ast.Decl (_, v, None); _ } ->
            Nullness.Domain.Env (Nullness.VM.remove v env)
        | Cfg.Bind (_, _, v) ->
            Nullness.Domain.Env (Nullness.VM.add v Nullness.Nonnull env)
        | _ -> Nullness.Domain.Env env)
end

let solve_null_method ~lookup ~entry (g : Cfg.t) :
    Nullness.Domain.t Dataflow.result =
  let module S = Dataflow.Forward (Null_domain (struct
    let nc = { nc_lookup = lookup; nc_entry = entry }
  end)) in
  S.solve g

(* Dereferences of definitely-null variables, including null arguments
   passed to a parameter the callee definitely dereferences. *)
let null_hits ~lookup (g : Cfg.t) (res : Nullness.Domain.t Dataflow.result) :
    (Jir.Ast.var * int) list =
  let out = ref [] in
  for node = 0 to Cfg.n_nodes g - 1 do
    match res.Dataflow.input.(node) with
    | Nullness.Domain.Unreached -> ()
    | Nullness.Domain.Env env ->
        let null v = Nullness.VM.find_opt v env = Some Nullness.Null in
        List.iter
          (fun v -> if null v then out := (v, node) :: !out)
          (Nullness.dereferenced g.Cfg.kinds.(node));
        (match Cfg.node_call g.Cfg.kinds.(node) with
        | Some c -> (
            let id =
              Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class
                ~meth:c.Jir.Ast.mname
            in
            match lookup id with
            | Some summ ->
                List.iteri
                  (fun i arg ->
                    match arg with
                    | Jir.Ast.Var y
                      when null y
                           && i < Array.length summ.ns_deref_param
                           && summ.ns_deref_param.(i) ->
                        out := (y, node) :: !out
                    | _ -> ())
                  c.Jir.Ast.args
            | None -> ())
        | None -> ())
  done;
  List.sort_uniq compare !out

let analyze_null_method ~lookup (g : Cfg.t) :
    null_summary * Nullness.Domain.t Dataflow.result =
  let m = g.Cfg.meth in
  (* normal run: parameters unknown *)
  let res = solve_null_method ~lookup ~entry:[] g in
  let ns_ret =
    let acc = ref None in
    for node = 0 to Cfg.n_nodes g - 1 do
      match (g.Cfg.kinds.(node), res.Dataflow.input.(node)) with
      | Cfg.Stmt { kind = Jir.Ast.Return (Some e); _ }, Nullness.Domain.Env env
        ->
          let v =
            match e with
            | Jir.Ast.Var y ->
                Option.value ~default:Nullness.Top
                  (Nullness.VM.find_opt y env)
            | _ -> Nullness.Top
          in
          acc := join_ret !acc (Some v)
      | _ -> ()
    done;
    !acc
  in
  (* per-parameter probe: would a null argument definitely be dereferenced? *)
  let params = List.map snd m.Jir.Ast.params in
  let ns_deref_param =
    Array.of_list
      (List.map
         (fun p ->
           let res = solve_null_method ~lookup ~entry:[ (p, Nullness.Null) ] g in
           null_hits ~lookup g res
           |> List.exists (fun (v, _) -> v = p))
         params)
  in
  ({ ns_ret; ns_deref_param }, res)

let null_client : (null_summary, Nullness.Domain.t Dataflow.result) client =
  { cl_name = "interproc-null";
    cl_bottom =
      (fun m ->
        { ns_ret = None;
          ns_deref_param =
            Array.make (List.length m.Jir.Ast.params) false });
    cl_equal =
      (fun a b -> a.ns_ret = b.ns_ret && a.ns_deref_param = b.ns_deref_param);
    cl_analyze = analyze_null_method }

(* The lint client: dereferences that only become definite nulls once
   summaries are applied.  Sites the intraprocedural nullness lint already
   reports are subtracted, so [--interproc] adds strictly whole-program
   findings instead of re-labelling local ones.  Each method's normal run is
   read once its component has converged, so no method is solved twice. *)
let null_diags ?policy ?plan (p : Jir.Ast.program) : Lint.diag list =
  let plan = match plan with Some pl -> pl | None -> plan_of_program p in
  let diags = ref [] in
  let observe ~lookup (g : Cfg.t) res =
    let intra =
      Nullness.violations g
      |> List.filter_map (fun (v, node) ->
             Option.map
               (fun (at : Jir.Ast.pos) -> (v, at.Jir.Ast.line))
               (Cfg.pos_of_node g node))
    in
    null_hits ~lookup g res
    |> List.iter (fun (v, node) ->
           match Cfg.pos_of_node g node with
           | Some at when not (List.mem (v, at.Jir.Ast.line) intra) ->
               diags :=
                 Lint.diag "interproc-null" (Jir.Ast.meth_id g.Cfg.meth) at
                   (Printf.sprintf
                      "'%s' is null through an interprocedural flow when \
                       dereferenced"
                      v)
                 :: !diags
           | _ -> ())
  in
  ignore (solve ?policy ~on_converged:observe plan null_client);
  !diags
  |> List.sort_uniq (fun (a : Lint.diag) b ->
         compare
           (a.Lint.at.Jir.Ast.file, a.Lint.at.Jir.Ast.line, a.Lint.meth,
            a.Lint.message)
           (b.Lint.at.Jir.Ast.file, b.Lint.at.Jir.Ast.line, b.Lint.meth,
            b.Lint.message))
