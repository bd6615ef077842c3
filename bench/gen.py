"""Seeded input generators for the benchmark.

Everything here is plain data derived from one seed: the same seed and
shape always give the same inputs. Conversion into votewire objects
happens in the workloads, so this module imports nothing from the
program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ROOT = "CH"
STATIONS = 4
# Six of the 26 cantons carry half a cantonal vote, as in the bundled
# Swiss table.
HALF_CANTONS = 6
NOISE = {"probability": 0.2, "max_shift": 20}
JITTER_MAX = 3
PRELIM_STAGGER = 40
FINAL_EMIT_DEFAULT = 120
# Attacks sit on fixed shares of edges, so their count grows with the tree.
MUNICIPALITY_ATTACK_SHARE = 0.01
CANTON_ATTACKS = 3
ATTACK_KINDS = ("tamper", "delay", "front_run")


@dataclass(frozen=True)
class Shape:
    cantons: int
    municipalities: int  # per canton
    stations: int = STATIONS  # per municipality

    @property
    def leaves(self) -> int:
        return self.cantons * self.municipalities * self.stations


def canton_path(k: int) -> str:
    return f"{ROOT}/K{k + 1:02d}"


def municipality_path(k: int, m: int) -> str:
    return f"{canton_path(k)}/M{m + 1:03d}"


def station_path(k: int, m: int, s: int) -> str:
    return f"{municipality_path(k, m)}/S{s + 1}"


@dataclass(frozen=True)
class Federation:
    """A reporting federation: tree, truth, timing and attacks as plain data.

    Paths are '/'-joined jurisdiction strings; counts are
    (yes, no, blank, invalid) tuples.
    """

    election_id: str
    engine_seed: int
    leaves: tuple[str, ...]
    half_votes: dict[str, int]
    eligible: dict[str, int]
    truth: dict[str, tuple[int, int, int, int]]
    prelim_emit: dict[str, int]
    attacks: tuple[dict, ...]

    def truth_sum(self) -> tuple[int, int, int, int]:
        return tuple(sum(c[i] for c in self.truth.values()) for i in range(4))

    def scenario_text(self) -> str:
        """The same federation as a scenario file for ``votewire simulate``."""
        document = {
            "election_id": self.election_id,
            "majority_rule": "double",
            "seed": self.engine_seed,
            "tree": {
                "paths": list(self.leaves),
                "half_votes": self.half_votes,
                "eligible_voters": self.eligible,
            },
            "ground_truth": {
                leaf: dict(zip(("yes", "no", "blank", "invalid"), counts))
                for leaf, counts in self.truth.items()
            },
            "default_channel": "email",
            "timing": {"prelim_emit": self.prelim_emit, "final_emit_default": FINAL_EMIT_DEFAULT},
            "jitter_max": JITTER_MAX,
            "noise": NOISE,
            "attacks": list(self.attacks),
        }
        return json.dumps(document, indent=1)


def federation(seed: int, shape: Shape) -> Federation:
    rng = random.Random(f"federation:{seed}:{shape.cantons}:{shape.municipalities}")
    leaves: list[str] = []
    eligible: dict[str, int] = {}
    truth: dict[str, tuple[int, int, int, int]] = {}
    prelim_emit: dict[str, int] = {}
    min_yes: dict[str, int] = {}
    for k in range(shape.cantons):
        for m in range(shape.municipalities):
            muni = municipality_path(k, m)
            for s in range(shape.stations):
                leaf = station_path(k, m, s)
                voters = rng.randint(1000, 5000)
                cast = int(voters * rng.uniform(0.35, 0.65))
                blank = cast // 100
                invalid = cast // 200
                yes = int((cast - blank - invalid) * rng.uniform(0.3, 0.7))
                no = cast - blank - invalid - yes
                leaves.append(leaf)
                eligible[leaf] = voters
                truth[leaf] = (yes, no, blank, invalid)
                prelim_emit[leaf] = rng.randint(0, PRELIM_STAGGER)
                min_yes[muni] = min(min_yes.get(muni, yes), yes)
    for leaf, voters in list(eligible.items()):
        parts = leaf.split("/")
        for depth in range(1, len(parts) - 1):
            node = "/".join(parts[: depth + 1])
            eligible[node] = eligible.get(node, 0) + voters
    eligible[ROOT] = sum(eligible[canton_path(k)] for k in range(shape.cantons))
    half_votes = {
        canton_path(k): 1 if k >= shape.cantons - HALF_CANTONS else 2
        for k in range(shape.cantons)
    }

    attacks: list[dict] = []
    munis = [municipality_path(k, m) for k in range(shape.cantons) for m in range(shape.municipalities)]
    n_muni = max(1, int(len(munis) * MUNICIPALITY_ATTACK_SHARE + 0.5))
    for i, muni in enumerate(sorted(rng.sample(munis, n_muni))):
        kind = ATTACK_KINDS[i % len(ATTACK_KINDS)]
        # Any report a municipality sends covers at least one station, so a
        # shift below the smallest station's noisy yes count always applies.
        shift = rng.randint(1, min_yes[muni] - NOISE["max_shift"])
        attacks.append(_attack(rng, kind, muni, eligible[muni], {"kind": "shift", "shift": shift}))
    for i, k in enumerate(sorted(rng.sample(range(shape.cantons), CANTON_ATTACKS))):
        canton = canton_path(k)
        kind = ATTACK_KINDS[i % len(ATTACK_KINDS)]
        attacks.append(_attack(rng, kind, canton, eligible[canton], {"kind": "swap_yes_no"}))

    return Federation(
        election_id=f"bench-{seed}",
        engine_seed=rng.randrange(2**31),
        leaves=tuple(leaves),
        half_votes=half_votes,
        eligible=eligible,
        truth=truth,
        prelim_emit=prelim_emit,
        attacks=tuple(attacks),
    )


def _attack(rng: random.Random, kind: str, edge: str, voters: int, mutation: dict) -> dict:
    if kind == "tamper":
        return {"kind": "tamper", "edge": edge, "omniscient": True, "mutation": mutation}
    if kind == "delay":
        return {"kind": "delay", "edge": edge, "hold_ticks": rng.randint(5, 40)}
    yes = rng.randint(0, voters // 2)
    return {
        "kind": "front_run",
        "edge": edge,
        "forged_counts": {"yes": yes, "no": rng.randint(0, voters // 2 - yes // 2)},
    }


# --- signed transport -------------------------------------------------------

HONEST, REPLAY, EDIT, REVOKED = "honest", "replay", "edit", "revoked"
REJECT_SHARES = ((REPLAY, 0.05), (EDIT, 0.05), (REVOKED, 0.05))
REVOKED_MUNICIPALITY_SHARE = 0.02
# Replays pick among the most recent accepted wire texts.
REPLAY_WINDOW = 256


@dataclass(frozen=True, slots=True)
class Send:
    """One scheduled round trip.

    ``replay_of`` is the index of an earlier honest send whose wire text is
    resent; ``edit`` is (digit position within the yes count, new digit).
    """

    kind: str
    sender: str
    depth: int
    seq: int
    counts: tuple[int, int, int, int]
    replay_of: int = -1
    edit: tuple[int, str] | None = None


def revoked_municipalities(seed: int, shape: Shape) -> tuple[str, ...]:
    rng = random.Random(f"revoked:{seed}")
    munis = [municipality_path(k, m) for k in range(shape.cantons) for m in range(shape.municipalities)]
    n = max(1, int(len(munis) * REVOKED_MUNICIPALITY_SHARE + 0.5))
    return tuple(sorted(rng.sample(munis, n)))


def signed_schedule(seed: int, shape: Shape):
    """Endless, reproducible stream of Sends over the shape's tree.

    Senders are spread evenly over depths 1 to 3. About 85% of sends are
    honest and fresh; the rest are replays, one-digit count edits and
    senders under a revoked municipality certificate.
    """
    rng = random.Random(f"signed:{seed}")
    revoked = set(revoked_municipalities(seed, shape))
    clean: dict[int, list[str]] = {1: [], 2: [], 3: []}
    under_revoked: dict[int, list[str]] = {2: [], 3: []}
    for k in range(shape.cantons):
        clean[1].append(canton_path(k))
        for m in range(shape.municipalities):
            muni = municipality_path(k, m)
            bucket = under_revoked if muni in revoked else clean
            bucket[2].append(muni)
            bucket[3].extend(station_path(k, m, s) for s in range(shape.stations))
    next_seq: dict[str, int] = {}
    recent_honest: list[int] = []
    index = 0
    while True:
        roll = rng.random()
        kind = HONEST
        for candidate, share in REJECT_SHARES:
            if roll < share:
                kind = candidate
                break
            roll -= share
        if kind == REPLAY and not recent_honest:
            kind = HONEST
        if kind == REPLAY:
            source = rng.choice(recent_honest)
            yield Send(REPLAY, "", 0, 0, (0, 0, 0, 0), replay_of=source)
        else:
            if kind == REVOKED:
                depth = rng.choice((2, 3))
                sender = rng.choice(under_revoked[depth])
            else:
                depth = rng.randint(1, 3)
                sender = rng.choice(clean[depth])
            seq = next_seq.get(sender, 0) + 1
            next_seq[sender] = seq
            scale = 10 ** (6 - depth)
            yes = rng.randint(scale, 9 * scale)
            counts = (yes, rng.randint(0, 9 * scale), rng.randint(0, scale // 10), rng.randint(0, scale // 10))
            edit = None
            if kind == EDIT:
                digits = str(yes)
                pos = rng.randrange(len(digits))
                choices = [d for d in "0123456789" if d != digits[pos] and (pos or d != "0")]
                edit = (pos, rng.choice(choices))
            yield Send(kind, sender, depth, seq, counts, edit=edit)
            if kind == HONEST:
                recent_honest.append(index)
                if len(recent_honest) > REPLAY_WINDOW:
                    recent_honest.pop(0)
        index += 1
