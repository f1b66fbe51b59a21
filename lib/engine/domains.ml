(* Process-wide domain budget.

   Two layers of the system want true parallelism: the pipeline's instance
   scheduler runs checking instances on a fixed worker pool, and inside each
   instance the engine's SMT batch fan-out ([Engine.solve_batch]) spawns
   short-lived solver domains.  Left uncoordinated, the two multiply — W
   workers each spawning S solver domains oversubscribes the machine W×S.

   This module is the shared cap both layers draw from.  The cap counts
   *live domains including the initial one*; a layer that wants to fan out
   [acquire]s up to the slots it could use, spawns exactly what it was
   granted (possibly zero — then it degrades to sequential execution in the
   domain it already owns), and [release]s the slots when its domains are
   joined.  Grants never block: parallelism is an optimization here, never
   a correctness requirement, so a layer finding the budget exhausted just
   proceeds sequentially.

   [spawn] is a counting wrapper around [Domain.spawn]; every spawner in the
   tree goes through it so tests can pin the total number of domains ever
   created by a run. *)

let default_cap = max 1 (Domain.recommended_domain_count ())

(* slots still grantable; the initial domain's slot is pre-subtracted *)
let available = Atomic.make (default_cap - 1)

(* cumulative count of domains spawned through [spawn], for tests *)
let spawned_total = Atomic.make 0

let set_cap n =
  let n = max 1 n in
  Atomic.set available (n - 1)

(* Grant between 0 and [max] domain slots, atomically. *)
let rec acquire ~max:want =
  if want <= 0 then 0
  else
    let avail = Atomic.get available in
    if avail <= 0 then 0
    else
      let grant = min want avail in
      if Atomic.compare_and_set available avail (avail - grant) then grant
      else acquire ~max:want

let release n = if n > 0 then ignore (Atomic.fetch_and_add available n)

(* Unconditionally take [n] slots — the instance scheduler's workers have
   priority over solver fan-out.  [available] may go negative; [acquire]
   then grants nothing until the slots are released, which is exactly the
   intended degradation: engines inside worker domains solve sequentially. *)
let reserve n = if n > 0 then ignore (Atomic.fetch_and_add available (-n))

let spawn f =
  Atomic.incr spawned_total;
  Domain.spawn f

let n_spawned () = Atomic.get spawned_total

(* [List.map f xs] on up to [lanes] live domains, the calling one included.
   The extra lanes are whatever [acquire] grants, so an exhausted budget
   degrades to a plain sequential map.  Lanes take the next element from a
   shared counter; the result keeps the input order whatever the grant was.
   Every spawned lane is joined before an exception of any lane is
   re-raised. *)
let map ~lanes f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let grant = acquire ~max:(min lanes n - 1) in
  if grant = 0 then List.map f xs
  else
    Fun.protect
      ~finally:(fun () -> release grant)
      (fun () ->
        let out = Array.make n None in
        let next = Atomic.make 0 in
        let rec lane () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f items.(i));
            lane ()
          end
        in
        let attempt f x = match f x with () -> Ok () | exception e -> Error e in
        let spawned = List.init grant (fun _ -> spawn lane) in
        let mine = attempt lane () in
        let theirs = List.map (attempt Domain.join) spawned in
        List.iter
          (function Error e -> raise e | Ok () -> ())
          (mine :: theirs);
        Array.to_list (Array.map Option.get out))
