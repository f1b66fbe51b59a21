(* Process-wide domain budget.

   The pipeline fans work out over domains in two places: the summary tier
   runs its properties in parallel, and the instance scheduler runs its
   checking instances in parallel.  Both go through [map], which draws its
   extra domains from one shared cap, so the process never holds more live
   domains than the cap allows, whatever [--workers] asks for.

   The cap counts *live domains including the initial one*; [acquire]
   grants up to the slots a caller could use (possibly zero — then [map]
   degrades to sequential execution in the domain it already owns), and
   [release] returns them once the domains are joined.  Grants never block:
   parallelism is an optimization here, never a correctness requirement.

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

let spawn f =
  Atomic.incr spawned_total;
  Domain.spawn f

let n_spawned () = Atomic.get spawned_total

(* [List.map (f ~lane) xs] on up to [lanes] live domains: lane 0 is the
   calling domain, the others are whatever [acquire] grants, so an
   exhausted budget degrades to a plain sequential map.  Lanes take the
   next element from a shared counter, so elements start in list order;
   the result keeps the input order whatever the grant was.  Once an
   element raises, no lane starts another; every spawned lane is joined,
   then the first exception recorded is re-raised. *)
let map ~lanes f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let grant = acquire ~max:(min lanes n - 1) in
  Fun.protect
    ~finally:(fun () -> release grant)
    (fun () ->
      let out = Array.make n None in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let rec run lane =
        if Option.is_none (Atomic.get failure) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f ~lane items.(i) with
            | y -> out.(i) <- Some y
            | exception e ->
                ignore (Atomic.compare_and_set failure None (Some e)));
            run lane
          end
        end
      in
      let spawned = List.init grant (fun k -> spawn (fun () -> run (k + 1))) in
      run 0;
      List.iter Domain.join spawned;
      match Atomic.get failure with
      | Some e -> raise e
      | None -> Array.to_list (Array.map Option.get out))
