"""Each pinned CLI output, once, and the check that runs them; needs only the standard
library and nspg. CI runs it before any install; tests/test_cli.py runs each row:

    PYTHONPATH=src python tests/pinned_outputs.py    # one line per pin; exit 1 if any fails
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import nspg.cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# The benchmark's verify-large catalog: DEGREE_4_1 and EDGES_6_1 at order 64-256.
VERIFY_LARGE = {"instances": [
    {"group": "Z256", "subgroups": ["128"]},
    {"group": "E(2,8)", "subgroups": ["1,2,4,8,16,32,64"]},
    {"group": "Z2xZ64", "subgroups": ["64"]},
    {"group": "Q8xQ8", "subgroups": ["1"]},
]}

# Each row: a command for nspg.cli.main, split on spaces ("verify_large.json" names
# VERIFY_LARGE), and its output with exit 0: a file under GOLDEN, or a byte length and sha256.
PINS = (
    ("verify --format csv", "verify_default.csv"),
    ("analyze Z6 --subgroup 3", "analyze_z6_subgroup3.json"),
    ("build Z4 --subgroup 2 --format json", "build_z4_subgroup2.json"),
    ("verify --format json", (832509, "e8d6b0bf80ccf22be10a1b067c50ba42d98e00de5436bdf6291fa12770c7cb0b")),
    # Two enumerations bench/expected/ leaves out.
    ("list-normal-subgroups S5", (90, "c6c39614964baa2578fc91e37fd6a9f0869a7cdd9daf06aa7d0ab897001591f8")),
    ("list-normal-subgroups E(2,5)",
     (11589, "6c319e914f75c4210c7e5a8676166c01512affecc390150dfcaf8532cae00d4f")),
    # Its labels pin the separator between E(p,k) digits past p = 10.
    ("power-graph E(13,2)", (37473, "43bc919ea627ba5de803cd38a3ecf9dc960fed1a3d15d71a6b8954200d45c5f4")),
    # The two largest power graphs of verify-large, whose every walk is long.
    ("power-graph Z256", (1084456, "7988f677d2ed0d565238a6041c146e8a682d5df797c54f1ed7a1dcf2e5a3b6b4")),
    ("power-graph Z2xZ64", (131182, "002bd25a5ca2a382a63c8a7a0c7414de86d56f328a730ec219bd7c679d468c26")),
    # Non-abelian: Γ(S5), and Γ_H(G) by the direct route on D64 (order 128) mod <r2>.
    ("power-graph S5", (10488, "5f346b2324fe6550396b2f31a0134f8984150f842bdcf34c5058943b84bd853e")),
    ("build D64 --subgroup 2", (51395, "c6e130d6219f0990c42e6ca0772dbb297a54c5ffd1d8cfc0f5e075ddb7221fbd")),
    ("verify --catalog verify_large.json --format json",
     (52893, "0a439b8aa7ee01544f3fad0023be054717cf51b2086e5e0bf0464602ecec84c1")),
    # Three factors, the middle one non-abelian: each generator must move its own digit.
    ("power-graph Z2xS4xZ3", (21665, "03f5edc8e778a0a7d677abca21e0327d6fd09db50fea463be2ded2b240e402ba")),
    # The table format on a 23-vertex graph that is not complete, with all four witnesses.
    ("analyze Q8xZ3 --subgroup-index 1 --format table",
     (955, "b81f90ba1c50222993f2f514f5f490f2a2eb2a9abc2b81d505cda27bbd093b7d")),
)


def output(command: str) -> tuple[int, bytes]:
    """The exit code and stdout of nspg.cli.main on command, run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        catalog = Path(tmp, "verify_large.json")
        catalog.write_text(json.dumps(VERIFY_LARGE), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nspg.cli.main([str(catalog) if a == catalog.name else a for a in command.split()])
    return code, out.getvalue().encode("utf-8")


def _measure(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


def check(command: str, expected) -> str | None:
    """None if command exits 0 with the expected output, else what differs."""
    code, data = output(command)
    want = _measure((GOLDEN / expected).read_bytes()) if isinstance(expected, str) else expected
    got = _measure(data)
    if (code, got) == (0, want):
        return None
    return (
        f"{command}: expected exit 0, {want[0]} bytes, sha256 {want[1]};"
        f" got exit {code}, {got[0]} bytes, sha256 {got[1]}"
    )


def main() -> int:
    failures = [check(*pin) for pin in PINS]
    for (command, _), failure in zip(PINS, failures):
        print(f"FAIL {failure}" if failure else f"ok {command}")
    return 1 if any(failures) else 0


if __name__ == "__main__":
    raise SystemExit(main())
