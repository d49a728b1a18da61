"""The benchmark's four workloads: the CLI commands each runs, and the check on each output.

Instance lists are fixed; a workload seed only permutes command order within
a pass (see worker.py). Expected values live in bench/expected/, written by
record.py; tests/golden/verify_default.csv is the repository's own golden file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected"
OUT = ROOT / "bench" / "out"
GOLDEN_VERIFY = ROOT / "tests" / "golden" / "verify_default.csv"

EXIT_OK = 0
EXIT_BUDGET = 3

# analyze G --subgroup <gens>: 64 to 256 vertices, kappa-heavy, several budget refusals.
LADDER = (
    ("Q8xQ8", "0"),
    ("E(2,5)", "0"),
    ("S5", "0"),
    ("D64", "2"),
    ("E(2,8)", "1,2,4,8,16,32,64"),
    ("Z256", "0"),
)

# list-normal-subgroups G. S5 and E(2,5) are left out: together they add about 34 s a pass.
NORMAL_SUBGROUP_GROUPS = (
    "E(2,4)",
    "Z4xZ4xZ2",
    "S3xS3",
    "D32",
    "S4xZ2",
    "D12xZ2",
    "Q8xQ8",
    "Z8xZ8",
    "Z256",
)

# verify --catalog: the harness on a few order-64..256 instances instead of many small ones.
LARGE_CATALOG = {
    "instances": [
        {"group": "Z256", "subgroups": ["128"]},
        {"group": "E(2,8)", "subgroups": ["1,2,4,8,16,32,64"]},
        {"group": "Z2xZ64", "subgroups": ["64"]},
        {"group": "Q8xQ8", "subgroups": ["1"]},
    ]
}
LARGE_CATALOG_FILE = OUT / "verify_large_catalog.json"

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check  # returns why the output is wrong, or None when it is right


@dataclass
class Workload:
    commands: list[Command]
    # Checks made once while preparing the workload, outside timed passes; None = passed.
    prepared: list[str | None] = field(default_factory=list)


def ladder_key(spec: str, gens: str) -> str:
    return f"{spec} --subgroup {gens}"


def _load(name: str):
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def _exact(expected: str, source: str) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != EXIT_OK:
            return f"exit status {rc}, expected {EXIT_OK}"
        if out != expected:
            return f"output differs from {source}"
        return None

    return check


def verify_default() -> Workload:
    expected = GOLDEN_VERIFY.read_bytes().decode("utf-8")
    return Workload([Command(("verify", "--format", "csv"), _exact(expected, GOLDEN_VERIFY.name))])


def normal_subgroups() -> Workload:
    expected = _load("normal_subgroups.json")
    return Workload(
        [
            Command(
                ("list-normal-subgroups", spec),
                _exact("".join(line + "\n" for line in expected[spec]), f"the record for {spec}"),
            )
            for spec in NORMAL_SUBGROUP_GROUPS
        ]
    )


def _rows_check(truth: list[str], seed: list[str]) -> Check:
    """Each row must equal the recorded true row; a row the seed refused may stay refused."""

    def check(rc: int, out: str) -> str | None:
        if rc != EXIT_OK:
            return f"exit status {rc}, expected {EXIT_OK}"
        rows = out.splitlines()
        if len(rows) != len(truth):
            return f"{len(rows)} rows, expected {len(truth)}"
        for i, (row, want, refused) in enumerate(zip(rows, truth, seed)):
            if row != want and not (refused != want and row == refused):
                return f"row {i} differs from the record: {row[:120]!r}"
        return None

    return check


def verify_large() -> Workload:
    expected = _load("verify_large.json")
    OUT.mkdir(parents=True, exist_ok=True)
    LARGE_CATALOG_FILE.write_text(json.dumps(LARGE_CATALOG, indent=2) + "\n", encoding="utf-8")
    argv = ("verify", "--catalog", str(LARGE_CATALOG_FILE), "--format", "csv")
    return Workload([Command(argv, _rows_check(expected["truth"], expected["seed"]))])


def graph_digest(graph_json: str) -> str:
    return hashlib.sha256(graph_json.encode("utf-8")).hexdigest()


def _crosscheck(spec: str, gens: str, record: dict) -> tuple[str | None, list[set[int]]]:
    """Build the graph both ways; they must agree with each other and with the record."""
    import nspg

    G = nspg.make_group(nspg.parse_group_spec(spec))
    H = nspg.generated_subgroup(G, [int(tok) for tok in gens.split(",")])
    direct = nspg.graph_to_json(nspg.nsb_power_graph(G, H).graph)
    lifted = nspg.graph_to_json(nspg.expand_quotient_graph(nspg.quotient(G, H), H).graph)
    graph = json.loads(direct)
    adjacency: list[set[int]] = [set() for _ in graph["vertices"]]
    for u, v in graph["edges"]:
        adjacency[u].add(v)
        adjacency[v].add(u)
    if direct != lifted:
        return "nsb_power_graph and expand_quotient_graph differ", adjacency
    if graph_digest(direct) != record["graph_sha256"]:
        return "graph differs from the recorded one", adjacency
    return None, adjacency


def _connected_without(adjacency: list[set[int]], removed: set[int]) -> bool:
    left = [v for v in range(len(adjacency)) if v not in removed]
    seen = {left[0]}
    stack = [left[0]]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(left)


def _witness_failure(obj: dict, witnesses: dict, adjacency: list[set[int]]) -> str | None:
    """Witnesses may differ between exact algorithms, so they are checked, not compared."""
    n = len(adjacency)
    wanted = set()
    if obj["clique_number"] is not None:
        wanted.add("clique")
    if obj["chromatic_number"] is not None:
        wanted.add("coloring")
    if obj["is_hamiltonian"]:
        wanted.add("hamiltonian_cycle")
    if not obj["is_complete"]:
        wanted.add("vertex_cut")
    if set(witnesses) != wanted:
        return f"witnesses {sorted(witnesses)}, expected {sorted(wanted)}"
    clique = witnesses.get("clique")
    if clique is not None and not (
        len(set(clique)) == len(clique) == obj["clique_number"]
        and all(b in adjacency[a] for a, b in itertools.combinations(clique, 2))
    ):
        return "clique witness is not a clique of the reported size"
    coloring = witnesses.get("coloring")
    if coloring is not None and not (
        len(coloring) == n
        and set(coloring) <= set(range(obj["chromatic_number"]))
        and all(coloring[u] != coloring[v] for u in range(n) for v in adjacency[u])
    ):
        return "coloring witness is not a proper coloring with the reported colors"
    cut = witnesses.get("vertex_cut")
    if cut is not None and not (
        len(set(cut)) == len(cut) == obj["vertex_connectivity"]
        and not _connected_without(adjacency, set(cut))
    ):
        return "vertex_cut witness is not a separating set of the reported size"
    cycle = witnesses.get("hamiltonian_cycle")
    if cycle is not None and not (
        sorted(cycle) == list(range(n))
        and all(cycle[i] in adjacency[cycle[i - 1]] for i in range(n))
    ):
        return "hamiltonian_cycle witness is not a Hamiltonian cycle"
    return None


def _analyze_check(record: dict, adjacency: list[set[int]]) -> Check:
    """Present values equal the record; only fields the seed refused may be refused."""

    def check(rc: int, out: str) -> str | None:
        try:
            obj = json.loads(out)
        except ValueError:
            return "output is not JSON"
        witnesses = obj.pop("witnesses", {})
        skipped = obj.pop("skipped", [])
        expected_rc = EXIT_BUDGET if skipped else EXIT_OK
        if rc != expected_rc:
            return f"exit status {rc}, expected {expected_rc}"
        newly = set(skipped) - set(record["refused_at_seed"])
        if newly:
            return f"refuses {sorted(newly)}, which the seed computed"
        fields = record["fields"]
        if obj.keys() != fields.keys():
            return f"keys {sorted(obj)}, expected {sorted(fields)}"
        for key, want in fields.items():
            if obj[key] != want and not (key in skipped and obj[key] is None):
                return f"{key} is {obj[key]!r}, expected {want!r}"
        return _witness_failure(obj, witnesses, adjacency)

    return check


def analyze_ladder() -> Workload:
    expected = _load("analyze_ladder.json")
    workload = Workload([])
    for spec, gens in LADDER:
        record = expected[ladder_key(spec, gens)]
        failure, adjacency = _crosscheck(spec, gens, record)
        workload.prepared.append(failure)
        argv = ("analyze", spec, "--subgroup", gens)
        workload.commands.append(Command(argv, _analyze_check(record, adjacency)))
    return workload


BUILDERS: dict[str, Callable[[], Workload]] = {
    "verify-default": verify_default,
    "analyze-ladder": analyze_ladder,
    "normal-subgroups": normal_subgroups,
    "verify-large": verify_large,
}
