"""Golden CLI output: exit code, stdout and the --json report of fixed runs.

Each case runs the CLI on a file in samples/ and compares the sha256 of its
stdout and of its --json file with digests recorded from a known-good build,
so any change in a count, loop rank, kill radius, rewrite trace, witness
count or verification level shows here as a changed digest.
"""

from __future__ import annotations

import hashlib
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from gpq.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# (arguments, exit code, sha256 of stdout, sha256 of the --json file)
GOLDEN = [
    ("ball z2.gp --backend abelian --radius 0", 0,
     "a1fde09d19fb83ac1d284aee14af59d6df938584d7e3e7766425bc9c858aa005",
     "672e068db3f57e7c04f46d5cb8b71915e37d781ac8260fdc87ba1033082b6c73"),
    ("ball z2.gp --backend abelian --radius 0 --sphere", 0,
     "9e45cdcf9fd8aab5430e9c8e67898e4c4e44bb9dc8e39f947d2794aeeb45313a",
     "0706e6ef5330c3acb70773d6a376bb8001e367f347846736db0d267e43949a81"),
    ("ball z2.gp --backend abelian --radius 0 --kill-radius 3", 0,
     "2cd8950a3898a99441ba6a61d462c21e81ecd036c8dff98185d255c4050d79a7",
     "589156c9391e7a2fe915a5c4cc449bcc91cc8846c004c16488f227aa773562dc"),
    ("ball z2.gp --backend abelian --radius 1", 0,
     "4d6a4b239d6e6aabed907d5a3da83d0a8450af436a42ddea30b05276e998f747",
     "15633a5228f4f2149f8d52c41e0bb96b37c22235f437a2b83dc061aa27756ca6"),
    ("ball z2.gp --backend abelian --radius 1 --sphere", 0,
     "e7309b33a5b7a254bb73e468f967c9ae5f33fc7e132bfc8e700540c28d269fb2",
     "ce8a7373cee9175191262c2d8b8722aa71dd21b1acd0fbe408515ca708d556b1"),
    ("ball z2.gp --backend abelian --radius 1 --kill-radius 3", 0,
     "d12d8f1d43c0fd7915cfb09e046726a85d888bffe605ee28475f5b0b3d98cd65",
     "cc54092d657495a010c9d2af38d2379e36c02a34df5eaa7f2f759d2636061a97"),
    ("ball z2.gp --backend abelian --radius 2", 0,
     "3682d2b653f5394860c7fb456297b7665b3add28b3e8ff7b667353b5aafd0759",
     "c5496652a25b2e36ea6b89fd1688bdbd9f15b25c48371b21127fbbab52d0c4b0"),
    ("ball z2.gp --backend abelian --radius 2 --sphere", 0,
     "099ba3e524042d18f47dcb9435334f312c580aafe6c2722e2b3ca54b17b82e9f",
     "c550e54a87432a55f2fe217c9164a7d0a7efe782e725b57d2738c2525f99d407"),
    ("ball z2.gp --backend abelian --radius 2 --kill-radius 3", 0,
     "cb11d3e5993e1db1d851ae5b98630f3a49d60121509ccfcef5b0aeefd412b84b",
     "6f50936ffc2006868192d2f8584b7164af77a28992a8532af67a767f012eae33"),
    ("ball bs12.gp --backend bs:1,2 --radius 0", 0,
     "a1fde09d19fb83ac1d284aee14af59d6df938584d7e3e7766425bc9c858aa005",
     "c05b22494035be7fda7ff3768ad639c275a7fd5b2a0b890aee6698d2ad9ae94f"),
    ("ball bs12.gp --backend bs:1,2 --radius 0 --sphere", 0,
     "9e45cdcf9fd8aab5430e9c8e67898e4c4e44bb9dc8e39f947d2794aeeb45313a",
     "9a6957569cc6cbcc9f3096b494f07a3691042a0a6303bfde05d7017fcbd219a9"),
    ("ball bs12.gp --backend bs:1,2 --radius 0 --kill-radius 3", 0,
     "2cd8950a3898a99441ba6a61d462c21e81ecd036c8dff98185d255c4050d79a7",
     "07bcbc84eb1b5c7e23bd0bab13c3ebd95b4db56287d218202d6775dfa5a807e0"),
    ("ball bs12.gp --backend bs:1,2 --radius 1", 0,
     "4d6a4b239d6e6aabed907d5a3da83d0a8450af436a42ddea30b05276e998f747",
     "3e76903ede502445dc8ea31ad9f270475264d78dc452a413b22a82591fbaca5e"),
    ("ball bs12.gp --backend bs:1,2 --radius 1 --sphere", 0,
     "e7309b33a5b7a254bb73e468f967c9ae5f33fc7e132bfc8e700540c28d269fb2",
     "39101d300cf89f0054e51fa7075380d830448801f1991e8ff54de7413d9dbad4"),
    ("ball bs12.gp --backend bs:1,2 --radius 1 --kill-radius 3", 0,
     "d12d8f1d43c0fd7915cfb09e046726a85d888bffe605ee28475f5b0b3d98cd65",
     "80d69cdb907a51150bafb27178d8d27d2bde0c74fc8a0aaf9ed832bc4d1d6356"),
    ("ball bs12.gp --backend bs:1,2 --radius 2", 0,
     "11dbac466bd631bb8b3a567f716df57b33493bfa35284babdfe286ff432658d7",
     "0ee4987c93a0b908b454228e75db904f6c8756d72bf544f9d638cb0a9b6ca64e"),
    ("ball bs12.gp --backend bs:1,2 --radius 2 --sphere", 0,
     "e1389ee59a7192c64a9c0d27d820fc1cd06d5af27abdca95ec2385152eb9384e",
     "db7c0a9efa2a198a1e355488948df50b3392cc4044048d5e41e0bf5f46e13482"),
    ("ball bs12.gp --backend bs:1,2 --radius 2 --kill-radius 3", 0,
     "6d62bb3d70a422af4bd1ba3f5223ad7d71ee8d9d2d9b3a20cdd2fee773b25d42",
     "5f455a7e5d55bd4884d932b20df17278bfe8babf8990d08a1ce5fe60ff36da9b"),
    ("ball d8.gp --backend dihedral:8 --radius 0", 0,
     "a1fde09d19fb83ac1d284aee14af59d6df938584d7e3e7766425bc9c858aa005",
     "f62d10a9f040ba35e527eed61ff6fcdc4e61d3045a6053ac0ddbc3ef17fc8c71"),
    ("ball d8.gp --backend dihedral:8 --radius 0 --sphere", 0,
     "9e45cdcf9fd8aab5430e9c8e67898e4c4e44bb9dc8e39f947d2794aeeb45313a",
     "56e155fa861479639bfebafbaaa682a5fea315ddfe8edf0d26721fd0d200c48f"),
    ("ball d8.gp --backend dihedral:8 --radius 0 --kill-radius 3", 0,
     "2cd8950a3898a99441ba6a61d462c21e81ecd036c8dff98185d255c4050d79a7",
     "eca5affe5e79c65613fb20134c04bc44aeac79c04293468551eaf5904e36c855"),
    ("ball d8.gp --backend dihedral:8 --radius 1", 0,
     "8affec2563dba7565ebeeb66ec45ef1e4e2b1d24666365e50a5921d10b179024",
     "9e4237024babd47d4c31077f91a9ebfdd910b5347eccaa987d655be184663aab"),
    ("ball d8.gp --backend dihedral:8 --radius 1 --sphere", 0,
     "4b6f19f07825b87ea6d14e8fdd7fecf285a59b8dc30898110f69878fb126b299",
     "464b9451f2124fa34ad641418647a5ce24415c7065cb7b191a334761b3cd31fc"),
    ("ball d8.gp --backend dihedral:8 --radius 1 --kill-radius 3", 0,
     "32aae81d0d050f5b6d5502d519fe4965980d28b90c8f0068ee592a3bd721ebd6",
     "8a3bd8663956374a41bd16343d506f89a048735ff41a8f6b444ec6a1eef4b269"),
    ("ball d8.gp --backend dihedral:8 --radius 2", 0,
     "58412a7d4902c3b3c27fd1cb1a7e1fb83156fb33a69ca5fedd46a152a770c5bd",
     "dd6ee4efaaa5d0418f6db3f7bbefd5574ba2407886c91c783cccffacf09879a3"),
    ("ball d8.gp --backend dihedral:8 --radius 2 --sphere", 0,
     "4b6f19f07825b87ea6d14e8fdd7fecf285a59b8dc30898110f69878fb126b299",
     "4c58a8bfb1b47bab91f768d467f48e715cf2a6daeb3c5d31dfd1a5188cb8a5df"),
    ("ball d8.gp --backend dihedral:8 --radius 2 --kill-radius 3", 0,
     "e922fb013cc16cabe019c1c606fdcae39bd80c4909efb07ac0b663f5a557b07c",
     "11bed664c4dc35722d4e1e0e92138276936669fc49d7dbe5ec500242f24e713d"),
    ("rewrite d8.gp --word 'a d a d a' --confluence --ball-witness 2", 0,
     "1fb499592dc271c32ce58701486fa15c03c560bda73bb7cce4b6da8c1f5b5bb3",
     "463356303c8fd9c7d18bdb32f0395fd42292b1b53f2e6d997b881bf525295949"),
    ("grigorchuk verify --max-n 3", 0,
     "715744175ab2e8ec21266339c1c4118fcfe19e66e80872ab559432281db808c2",
     "492281fdb132d89636873544517fb50eabf078f6a1b03cbbff9a78a471a07e12"),
    ("grigorchuk verify --max-n 8", 0,
     "2cd4fb5b57b7ff401bb8211211fcf117762e0cbd8560973919e334440158bda2",
     "5f05148ea87049fc662bacf08291a5b8af1627abda449589eb552185d7c4ad45"),
    # the largest grid FAMILY_LETTER_CAP admits
    ("grigorchuk verify --max-n 10", 0,
     "026b0df385762791da25aecc7634fe68bc7baeba28f175b10835e1c44dd5c440",
     "c5a16df0289377acbc9c5105adbe71b27b8ba30eabebbae20c1be9ea3aeec3f4"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args, code, stdout_sha, json_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_matches_golden(tmp_path, args, code, stdout_sha, json_sha):
    argv = [str(SAMPLES / a) if a.endswith(".gp") else a for a in shlex.split(args)]
    report = tmp_path / "report.json"
    result = CliRunner().invoke(main, argv + ["--json", str(report)])
    assert result.exit_code == code, result.output
    assert _sha256(result.stdout.encode()) == stdout_sha, result.stdout
    assert _sha256(report.read_bytes()) == json_sha, report.read_text()
