"""Offline dictionary attacks against stolen password files (paper §5.1).

Two attacker models:

* **Known grid identifiers** (the realistic file-theft case): the password
  file stores clear grid identifiers next to each hash, so every dictionary
  entry is discretized directly under the victim's stored public material —
  one hash per entry.  This is the attack behind Figures 7 and 8.
* **Hash-only** (grid identifiers somehow withheld): each entry must be
  hashed once per possible grid-identifier combination.  Robust
  Discretization has only 3 grids per click-point; Centered Discretization
  has (2r)² per click-point, so withholding identifiers costs the attacker
  vastly more against Centered (§5.1 last paragraph) — quantified here as a
  work-factor model.

The cracked/not-cracked decision per password is computed in closed form
(see :mod:`repro.attacks.dictionary`); the attacker's hashing cost is
reported as a model, since actually grinding 2^36 SHA-256 calls adds
nothing scientifically.

Implementation note: per-position acceptance runs through the batch
engine (:mod:`repro.core.batch`) — one ``verify_batch`` call answers
"which seed points fall in this stored cell?" for the whole pool.  Cell
boundaries have denominators in {1, 2, 3, 6} while seed coordinates are
integers, so the engine's float comparisons are exact-safe (the nearest
boundary-to-integer gap, 1/6 px, dwarfs float error).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import as_point_array
from repro.core.scheme import DiscretizationScheme
from repro.crypto.encoding import encode_scalar
from repro.crypto.records import VerificationRecord
from repro.errors import AttackError
from repro.passwords.system import StoredPassword
from repro.study.dataset import PasswordSample
from repro.attacks.dictionary import HumanSeededDictionary

__all__ = [
    "PasswordAttackOutcome",
    "OfflineAttackResult",
    "StolenAccountOutcome",
    "StolenFileAttackResult",
    "GuessBatch",
    "prepare_guess_batch",
    "offline_attack_known_identifiers",
    "offline_attack_stolen_file",
    "parse_password_file",
    "hash_only_work_factor",
]


@dataclass(frozen=True, slots=True)
class PasswordAttackOutcome:
    """Attack outcome for one password."""

    password_id: int
    cracked: bool
    matching_entries: int


@dataclass(frozen=True)
class OfflineAttackResult:
    """Aggregate result of an offline dictionary attack on one image.

    Attributes
    ----------
    scheme_name, image_name:
        Attack context.
    outcomes:
        Per-password outcomes, in dataset order.
    dictionary_bits:
        log2 of the dictionary size (≈ 36 for the paper's configuration).
    hash_operations_modeled:
        The enumeration cost the attacker would pay: dictionary size ×
        passwords attacked (known-identifier case), before any early-stop.
    """

    scheme_name: str
    image_name: str
    outcomes: Tuple[PasswordAttackOutcome, ...]
    dictionary_bits: float
    hash_operations_modeled: int

    @property
    def attacked(self) -> int:
        """Number of passwords attacked."""
        return len(self.outcomes)

    @property
    def cracked(self) -> int:
        """Number of passwords cracked by at least one entry."""
        return sum(1 for outcome in self.outcomes if outcome.cracked)

    @property
    def cracked_fraction(self) -> float:
        """Fraction of passwords cracked — the y-axis of Figures 7–8."""
        if not self.outcomes:
            return 0.0
        return self.cracked / self.attacked

    @property
    def mean_matching_entries(self) -> float:
        """Average number of dictionary entries that crack a password."""
        if not self.outcomes:
            return 0.0
        return sum(o.matching_entries for o in self.outcomes) / self.attacked

    @property
    def dictionary_entries(self) -> int:
        """Exact dictionary size N (``hash_operations_modeled`` is N × attacked)."""
        if not self.outcomes:
            return 0
        return self.hash_operations_modeled // self.attacked

    def expected_guess_rank(self, outcome: PasswordAttackOutcome) -> float:
        """Expected guesses before *outcome*'s password falls, ``(N+1)/(m+1)``.

        With ``m`` matching entries in a dictionary of ``N``, a uniform
        random-order enumeration expects ``(N+1)/(m+1)`` guesses to hit the
        first match.  For an uncracked password (``m = 0``) this degrades
        to ``N + 1`` — one past exhausting the dictionary — which is the
        natural "never hits" sentinel on the same scale.
        """
        if outcome.matching_entries < 0:
            raise AttackError(
                f"matching_entries must be >= 0, got {outcome.matching_entries}"
            )
        return (self.dictionary_entries + 1) / (outcome.matching_entries + 1)


def _validate_known_identifier_targets(
    scheme: DiscretizationScheme,
    passwords: Sequence[PasswordSample],
    dictionary: HumanSeededDictionary,
) -> str:
    """Pre-flight checks shared by the serial and sharded attack paths.

    Returns the single image name the targets live on.  Kept in one place
    so the parallel runner surfaces exactly the errors the serial path
    would — from the caller's process, before any worker forks.
    """
    if scheme.dim != 2:
        raise AttackError(f"attack expects a 2-D scheme, got {scheme.dim}-D")
    if not passwords:
        raise AttackError("no passwords to attack")
    image_names = {p.image_name for p in passwords}
    if len(image_names) != 1:
        raise AttackError(
            f"passwords span multiple images: {sorted(image_names)}"
        )
    image_name = image_names.pop()
    if dictionary.image_name and dictionary.image_name != image_name:
        raise AttackError(
            f"dictionary was seeded on {dictionary.image_name!r}, targets are "
            f"on {image_name!r}"
        )
    for password in passwords:
        if len(password.points) != dictionary.tuple_length:
            raise AttackError(
                f"password {password.password_id} has {len(password.points)} "
                f"clicks, dictionary tuples have {dictionary.tuple_length}"
            )
    return image_name


def offline_attack_known_identifiers(
    scheme: DiscretizationScheme,
    passwords: Sequence[PasswordSample],
    dictionary: HumanSeededDictionary,
    count_entries: bool = True,
) -> OfflineAttackResult:
    """Run the known-grid-identifier offline attack (Figures 7–8).

    For each target password, enrolls its original points under *scheme*
    (reconstructing exactly the public material + acceptance cells a stolen
    password file implies), then decides crackedness against the dictionary
    in closed form: position j is *matchable* iff some seed point lies in
    the stored cell of click j, and the password is cracked iff distinct
    seed points can fill all positions.

    Set ``count_entries=False`` to skip the exact matching-entry permanent
    (the boolean decision is much cheaper).
    """
    image_name = _validate_known_identifier_targets(scheme, passwords, dictionary)

    outcomes: List[PasswordAttackOutcome] = []
    for password in passwords:
        # Whole-password batch enrollment + one (positions, N) mask per
        # password: a single kernel call answers every position at once.
        enrollment = scheme.batch().enroll(password.points)
        mask = dictionary.match_mask_batch(scheme, enrollment)
        match_lists = list(HumanSeededDictionary.match_sets_from_mask(mask))
        cracked = HumanSeededDictionary.has_injective_assignment(match_lists)
        if count_entries and cracked:
            matching = HumanSeededDictionary.count_injective_assignments(match_lists)
        else:
            matching = 0
        outcomes.append(
            PasswordAttackOutcome(
                password_id=password.password_id,
                cracked=cracked,
                matching_entries=matching,
            )
        )

    return OfflineAttackResult(
        scheme_name=scheme.name,
        image_name=image_name,
        outcomes=tuple(outcomes),
        dictionary_bits=dictionary.bits,
        hash_operations_modeled=dictionary.entry_count * len(passwords),
    )


@dataclass(frozen=True, slots=True)
class StolenAccountOutcome:
    """Hash-grinding outcome for one stolen account record.

    ``hash_units`` is the iterated-hash work the guesses cost:
    ``guesses_hashed × record.hasher.iterations``.  Records enrolled under
    a ``hash_cost_factor=k`` defense self-describe k× the iterations, so
    the grind bill scales by k automatically.
    """

    username: str
    cracked: bool
    guesses_hashed: int
    hash_units: int = 0


@dataclass(frozen=True)
class StolenFileAttackResult:
    """Result of grinding a stolen password file with a guess budget.

    Unlike :class:`OfflineAttackResult` (closed-form, needs the victims'
    original click-points), this attack sees only what a storage backend's
    ``dump`` reveals — public material, salts, digests — and must pay one
    hash per guess, exactly the attacker of §5.1.
    """

    scheme_name: str
    guess_budget: int
    outcomes: Tuple[StolenAccountOutcome, ...]

    @property
    def attacked(self) -> int:
        """Number of stolen records attacked."""
        return len(self.outcomes)

    @property
    def cracked(self) -> int:
        """Number of records cracked within the budget."""
        return sum(1 for o in self.outcomes if o.cracked)

    @property
    def cracked_fraction(self) -> float:
        """Fraction of stolen records cracked within the budget."""
        if not self.outcomes:
            return 0.0
        return self.cracked / self.attacked

    @property
    def hash_operations(self) -> int:
        """Hashes the attacker actually computed (early-stop included)."""
        return sum(o.guesses_hashed for o in self.outcomes)

    @property
    def hash_units(self) -> int:
        """Iterated-hash work actually paid (guesses × per-record iterations)."""
        return sum(o.hash_units for o in self.outcomes)

    @property
    def hash_units_per_crack(self) -> float:
        """Attacker grind cost per cracked record; ``inf`` when none cracked.

        The defense-matrix sweep's offline cost-per-compromise axis: a
        ``hash_cost_factor=k`` deployment multiplies it by ~k, and a
        pepper withheld from the stolen material drives it to ``inf``
        (the grind fails closed — no guess can match the keyed digest).
        """
        cracked = self.cracked
        if cracked == 0:
            return float("inf")
        return self.hash_units / cracked


def parse_password_file(payload: str) -> Dict[str, StoredPassword]:
    """Parse a password file dumped by any storage backend.

    The payload is the JSON produced by
    :meth:`~repro.passwords.storage.StorageBackend.dump` /
    :meth:`~repro.passwords.store.PasswordStore.dump_records` — the
    attacker-visible artifact, identical across memory/SQLite/JSONL
    backends.
    """
    from repro.errors import ReproError

    try:
        data = json.loads(payload)
        return {
            username: StoredPassword.from_json(stored)
            for username, stored in data.items()
        }
    except (
        json.JSONDecodeError,
        AttributeError,
        KeyError,
        TypeError,
        ReproError,  # e.g. VerificationError from a malformed nested record
    ) as exc:
        raise AttackError(f"malformed stolen password file: {exc}") from exc


def _validate_stolen_records(
    records: Mapping[str, StoredPassword],
    dictionary: HumanSeededDictionary,
    guess_budget: int,
) -> None:
    """Pre-flight checks shared by the serial and sharded grind paths."""
    if guess_budget < 1:
        raise AttackError(f"guess_budget must be >= 1, got {guess_budget}")
    if not records:
        raise AttackError("stolen password file holds no records")
    for username in sorted(records):
        if records[username].clicks != dictionary.tuple_length:
            raise AttackError(
                f"record {username!r} has {records[username].clicks} clicks, "
                f"dictionary tuples have {dictionary.tuple_length}"
            )


#: Guesses located per kernel call in the stolen-file grind.  Bounds peak
#: memory to ``chunk × clicks`` rows (instead of ``budget × clicks``) and
#: bounds the geometry wasted on an early-stopped account to one chunk.
GUESS_CHUNK = 128


@dataclass(frozen=True)
class GuessBatch:
    """Precomputed guess arrays for the stolen-file grind, reusable as-is.

    Enumerating ``prioritized_entries`` and packing their points into a
    float64 array is pure per-dictionary work — it does not depend on the
    records under attack — so the grind computes it **once** and reuses it
    across every account, every task, and (in the parallel engine) every
    task a worker pulls from the queue.  Slices handed to the kernel are
    numpy views into :attr:`points` (zero-copy).

    Attributes
    ----------
    entries:
        The prioritized dictionary entries, best-first, already truncated
        to the guess budget.
    points:
        ``(len(entries) × clicks, dim)`` read-only float64 array of every
        entry's points, concatenated in entry order.
    clicks:
        Points per entry (the dictionary's ``tuple_length``).
    """

    entries: Tuple[Tuple, ...]
    points: np.ndarray
    clicks: int

    @property
    def guesses(self) -> int:
        """Number of prioritized entries in the batch."""
        return len(self.entries)

    def point_rows(self, start: int, stop: int) -> np.ndarray:
        """Zero-copy view of the point rows for entries ``start:stop``."""
        return self.points[start * self.clicks : stop * self.clicks]


def prepare_guess_batch(
    dictionary: HumanSeededDictionary, guess_budget: int, dim: int
) -> GuessBatch:
    """Enumerate and pack the grind's guesses once, for reuse everywhere.

    Raises :class:`AttackError` when the dictionary yields no entries.
    The result is safe to share across accounts, calls and (forked)
    worker processes: the array is read-only and the entries are frozen.
    """
    entries = list(dictionary.prioritized_entries(guess_budget))
    if not entries:
        raise AttackError("dictionary yielded no entries")
    points = as_point_array(
        [point for entry in entries for point in entry], dim
    )
    points.flags.writeable = False
    return GuessBatch(
        entries=tuple(entries), points=points, clicks=dictionary.tuple_length
    )


#: Per-process memo of canonical int encodings (``i:len:text`` bytes).
#: Secret cell indices repeat massively across guesses and accounts, so
#: the grind's per-guess encoding cost collapses to dict lookups.
_INT_ENCODINGS: Dict[int, bytes] = {}


def _encoded_int(value: int) -> bytes:
    """Canonical encoding of one int, memoized (see ``encode_scalar``)."""
    cached = _INT_ENCODINGS.get(value)
    if cached is None:
        text = str(value)
        cached = f"i:{len(text)}:{text}".encode("ascii")
        _INT_ENCODINGS[value] = cached
    return cached


def _record_matcher(
    record: VerificationRecord, secret_len: int, pepper: bytes = b""
) -> Callable[[Sequence[int]], bool]:
    """Precompiled per-record digest check, bit-identical to ``matches``.

    ``record.matches`` re-encodes the record's public scalars (Fractions
    included) and re-hashes the shared prefix on **every** guess; at 2¹⁰
    guesses per account that encoding dominates the grind.  This builds,
    once per record:

    * the canonical byte prefix (sequence header + encoded publics) via
      the real :func:`~repro.crypto.encoding.encode_scalar`, so the bytes
      are identical to ``encode_scalars(combine_material(...))``;
    * a hash object pre-fed with ``salt + prefix`` whose ``copy()`` is the
      classic midstate trick — each guess pays only the secret-index
      suffix, not the whole material;

    and returns a closure mapping a secret index row to the same boolean
    ``record.matches(row, pepper=pepper)`` produces (iterated hashing and
    the peppered outer hash included).  Equivalence is pinned by
    ``tests/test_attacks_offline_online.py``.
    """
    hasher = record.hasher
    total = len(record.public) + secret_len
    prefix = f"n:{total};".encode("ascii") + b"".join(
        encode_scalar(value) for value in record.public
    )
    constructor = getattr(hashlib, hasher.algorithm, None)
    if constructor is None:  # non-attribute algorithms (e.g. ripemd160)
        constructor = partial(hashlib.new, hasher.algorithm)
    base = constructor(hasher.salt + prefix)
    rounds = hasher.iterations - 1
    expected = record.digest

    def matches(secret_row: Sequence[int]) -> bool:
        state = base.copy()
        state.update(b"".join(map(_encoded_int, secret_row)))
        if rounds or pepper:
            digest = state.digest()
            for _ in range(rounds):
                digest = constructor(digest).digest()
            if pepper:
                digest = constructor(pepper + digest).digest()
            return digest.hex() == expected
        return state.hexdigest() == expected

    return matches


def _grind_account(
    kernel,
    stored: StoredPassword,
    guesses: GuessBatch,
    start: int,
    stop: int,
    pepper: bytes = b"",
) -> Tuple[Optional[int], int]:
    """Grind one account over guess ranks ``[start, stop)``.

    Returns ``(rank, hashed)``: *rank* is the global index of the first
    matching entry (``None`` if nothing in the range matches) and *hashed*
    counts the guesses actually hashed — including the match, exactly the
    serial early-stop accounting.  Ranks beyond the batch contribute
    nothing, so queue-mode guess windows clip for free.
    """
    stop = min(stop, guesses.guesses)
    if start >= stop:
        return None, 0
    public_rows = kernel.public_rows(stored.publics)
    matcher = None
    hashed = 0
    for chunk_start in range(start, stop, GUESS_CHUNK):
        chunk_stop = min(chunk_start + GUESS_CHUNK, stop)
        chunk_points = guesses.point_rows(chunk_start, chunk_stop)
        reps = chunk_stop - chunk_start
        if public_rows.ndim == 1:  # robust: flat grid identifiers
            tiled_public = np.tile(public_rows, reps)
        else:
            tiled_public = np.tile(public_rows, (reps, 1))
        located = kernel.locate(chunk_points, tiled_public).reshape(reps, -1)
        if matcher is None:
            matcher = _record_matcher(stored.record, located.shape[1], pepper)
        for offset, row in enumerate(located.tolist()):
            hashed += 1
            if matcher(row):
                return chunk_start + offset, hashed
    return None, hashed


def offline_attack_stolen_file(
    scheme: DiscretizationScheme,
    stolen: Union[str, Mapping[str, StoredPassword]],
    dictionary: HumanSeededDictionary,
    guess_budget: int = 1000,
    pepper: bytes = b"",
    guesses: Optional[GuessBatch] = None,
) -> StolenFileAttackResult:
    """Grind a stolen password file with popularity-ordered guesses.

    For each stolen record the attacker discretizes candidate entries
    under the record's clear public material — one vectorized ``locate``
    per :data:`GUESS_CHUNK`-guess chunk, slicing zero-copy views out of a
    :class:`GuessBatch` prepared once per run — then pays one salted hash
    per entry through a precompiled per-record matcher (midstate hashing;
    bit-identical to ``record.matches``), stopping at the first match:
    cracked accounts never locate, let alone hash, the chunks behind the
    early stop.  This is the deployed §5.1 threat executed end to end:
    steal via a backend's ``dump``, attack offline without throttling.

    *stolen* is either the JSON payload itself or an already-parsed
    ``{username: StoredPassword}`` mapping.

    *pepper* is the deployment's secret pepper **if the attacker also
    stole it** (server-config compromise).  The password file itself never
    contains it, so by default the grind against a peppered deployment
    fails closed: every candidate digest misses the keyed outer hash and
    nothing cracks, at full grind cost.

    *guesses* optionally supplies a :func:`prepare_guess_batch` result
    built from the **same dictionary and budget** (callers grinding many
    password files — the parallel engine's workers, the million-account
    demo's enrollment waves — prepare once and reuse); by default the
    batch is prepared here.
    """
    records = parse_password_file(stolen) if isinstance(stolen, str) else dict(stolen)
    _validate_stolen_records(records, dictionary, guess_budget)

    batch = (
        guesses
        if guesses is not None
        else prepare_guess_batch(dictionary, guess_budget, scheme.dim)
    )
    if batch.clicks != dictionary.tuple_length:
        raise AttackError(
            f"guess batch has {batch.clicks}-click entries, dictionary "
            f"tuples have {dictionary.tuple_length}"
        )
    kernel = scheme.batch()

    outcomes: List[StolenAccountOutcome] = []
    for username in sorted(records):
        stored = records[username]
        rank, hashed = _grind_account(
            kernel, stored, batch, 0, batch.guesses, pepper
        )
        outcomes.append(
            StolenAccountOutcome(
                username=username,
                cracked=rank is not None,
                guesses_hashed=hashed,
                hash_units=hashed * stored.record.hasher.iterations,
            )
        )
    return StolenFileAttackResult(
        scheme_name=scheme.name,
        guess_budget=guess_budget,
        outcomes=tuple(outcomes),
    )


def hash_only_work_factor(
    scheme: DiscretizationScheme, clicks: int = 5
) -> Dict[str, float]:
    """Work multiplier when grid identifiers are *not* known (§5.1).

    Without identifiers, each dictionary entry must be hashed under every
    possible grid-identifier combination:

    * Robust: 3 grids per click  → 3^clicks combinations;
    * Centered: (2r)^dim offsets per click → ((2r)^dim)^clicks.

    Returns the per-entry multiplier and its log2 ("extra bits" of attacker
    work).  For 13×13 centered squares this is 169^5 ≈ 2^37 — the paper's
    point that withholding identifiers hurts attacks on Centered far more.
    """
    if clicks < 1:
        raise AttackError(f"clicks must be >= 1, got {clicks}")
    from repro.core.centered import CenteredDiscretization
    from repro.core.robust import RobustDiscretization
    from repro.core.static import StaticGridScheme

    if isinstance(scheme, RobustDiscretization):
        per_click = float(scheme.grid_count)
    elif isinstance(scheme, CenteredDiscretization):
        per_click = float(scheme.cell_size) ** scheme.dim
    elif isinstance(scheme, StaticGridScheme):
        per_click = 1.0  # a static grid has a single, known grid
    else:
        raise AttackError(f"unknown scheme type {type(scheme).__name__}")
    multiplier = per_click**clicks
    return {
        "per_click_identifiers": per_click,
        "multiplier": multiplier,
        "extra_bits": math.log2(multiplier) if multiplier > 0 else 0.0,
    }
