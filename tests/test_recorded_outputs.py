"""The channel families, the theorem schemes, two product schemes and the
protocols the assisted search finds are pinned by the sha256 of their JSON
form.  The families and schemes were recorded before the families were
built from their layer rule and the decoders from one per-output rule; the
found protocols (decoder included) before the search decided each encoder
from its prefix's accumulated masks.  A digest that changes means a file
written by ``zecomm channel``, a protocol file or a ``search-assisted``
answer differs from the recorded one.  The ``verify-paper`` report is pinned
too, as text with its time column masked and as ``--json`` with every time
set to 0, in the order printed; it was recorded before the checks became one
table of module-level functions.  The CSV file of ``zecomm channel --csv`` is
pinned by the sha256 of its bytes, recorded before the CSV writer read the
sparse columns."""

import contextlib
import hashlib
import io
import json
import re

import pytest

from zecomm.behaviors import make_extremal_box, make_rtilde_box
from zecomm.channels import channel_to_json, make_mm, make_nm
from zecomm.cli import BOX_FAMILIES, CHANNEL_FAMILIES, main
from zecomm.protocols import (
    exhaustive_assisted_search,
    make_theorem2_protocol,
    make_theorem3_protocol,
    protocol_to_json,
    tensor_protocols,
)

RECORDED = {
    "Nm(2)": "cfaadf5e40c59d53c533f46e32dfdeeacbe6eb4f6e9ca0531c58d5d67da1a59a",
    "Nm(3)": "ab2adf35e04f54dab57cdfee948a54d138072de839f9859d448d151bd9fe5e92",
    "Nm(4)": "ea577dab1653692f673dae964969b64198d331e0126c64ca22672c6f159bfdcf",
    "Nm(5)": "68b59074b818820155a41325488d0b7c30f695f0808312c651a3a29d3cc57d9b",
    "Nm(6)": "af72d079978bff390027d914841c9cf4a2fdd93a51a63160d56fc75f31f84a02",
    "Nm(7)": "7733da5dfb3030964f510f13681a1a2c18c4abaeeeac8f60f2179153c218b927",
    "Nm(8)": "e67dbcbe38e4f77100c162e3f9b06b06d4846a02595820987e7ae4dd4b5b2f21",
    "Nm(9)": "d0df210a451e0d33ff36f3e6faf33ab9aaa1d0e8d8c7d58e392ba8d02c72612d",
    "Nm(10)": "43efaa6e6999fc4896f031d7e82ddb6c9884160409f534d3c573897a1ee574a7",
    "Nm(11)": "340f73dfedd13193bca99073776536086813b8b2774d9f63959eaa76cdf979c9",
    "Nm(12)": "df9620d5307b3eb24f7b2ce2723d7e1cca7b8079e6475d581fd419683e14e85a",
    "Mm(2)": "7aeed717ec575cb8cc79164c025d06282b3ce74beaa9d179ce4d67dadc5ae10d",
    "Mm(3)": "32966244e75940e17211ad896852ec2b5917a77a2bf5ddf67276a5b156b6abb3",
    "Mm(4)": "97c259a78476e130e4a852e23637a86e61cc9b2b3f81564610ac349359e92d2e",
    "Mm(5)": "b2853cc5eb4f6793b4720a611b55055ed5263036c83c34b6133dea3875840f76",
    "Mm(6)": "11dcf1f1a7b5db61a51cb59d32231d638503770bc38c5044c65e4d1ae260c18c",
    "Mm(7)": "8c4cb69242dd75bd790d3334c0740da33957cff8e64676e31f9cac07cd5c496b",
    "Mm(8)": "8a2f0f594f4ef6c1bd3cd596be2a297fcedc0236b2e64cdee79206ee3716f8a6",
    "Mm(9)": "6707d9863db0e1d221d5c57fa06e8043583bf9c541950e7082359668a9c2cf15",
    "theorem2(2)": "0f877c80b4219e61a98c3fd6052589133ff329e60c1cdd91a4d3e4926f80c02a",
    "theorem2(3)": "06bb5ada9c526e58bdd38f33666e6f2c7e6be7d717fdb8cae7c5fa7f312880f4",
    "theorem2(4)": "5aedb9f6c20e01b0deaf06b8d4442fe9d85e7c0b2b2338d8b384960d2c15b937",
    "theorem2(5)": "71231b11cb2974167ba6a6ea35a6e0025ecb007f5c70bb647a5eaaa2d1789b2e",
    "theorem2(6)": "b5a7baed402ce5324f8e33b77ccb11566fc30430e361e4f9c6f1ed1b0d13c445",
    "theorem2(7)": "b680310a93102da1d871505495b4dcbe2ae6f1b72e5ae24d80534a394d02580c",
    "theorem2(8)": "944364afefff5035124634c018a72ecaeecec4315ed28446aa45328786f4aa01",
    "theorem2(9)": "3c9b9d489b0172b0c1a7ed497afd05e5c4df693882223b698489601de4150767",
    "theorem2(10)": "75acfcd7ced75967c249286d4dbcb6c111e6abfd715360d00d11244c9ecd89e1",
    "theorem2(11)": "b3bb527d91a7a6b70438263bbb92a8ffbb91ec581a96d6256d46d95185db355d",
    "theorem2(12)": "44bc4c029353cba5b4c569184125377c401888ba7290e4c6d8b5360e08a2e09f",
    "theorem3(2)": "c016130f349d8b2ef82f747ccf6e1e6b2ba13cc378d3cb8dca851e7b024d80e8",
    "theorem3(3)": "5ba115d49d2e74e0fa7739bb2fcc59e134263460c5d83df230101ef533958377",
    "theorem3(4)": "06a0eee2feaba2ab6f93f93f58dc4dd864a87de976148a6b47378557b97d3694",
    "theorem3(5)": "3f17575097b890071e8ed415bb141b841744f789e2669c9b57d19faddc86d3c1",
    "theorem3(6)": "42f8618c33a45f558f8605e8d2733be36804b8efdb750ed3a208d3434455d2e9",
    "theorem3(7)": "d94b10afa9af3cd4464f12d3f6d183769a595d45498a758ec1b13abe44924e3c",
    "theorem3(8)": "4acb7bbb4f43c0e6d6462dd3bdb3bfe45bd4c93725d83dcda8b199e142eb0a7c",
    "theorem3(9)": "184617aa2fb4cf635502369c10e01d519a41d8000968531af9b3b7e23cc7ce86",
    "Nm2xNm2": "23f4a8e2a282c65767901e0c700283e0d62db8de39cc55bb84f939d3a52afb42",
    "Mm3xNm2": "b6d575c4aeb1c85489e7dfacdcf42dd1fd596695d75dfeec56a2d31758cd3993",
    "search Nm(2) pr K=2": "0f877c80b4219e61a98c3fd6052589133ff329e60c1cdd91a4d3e4926f80c02a",
    "search Mm(2) rtilde K=2": "c016130f349d8b2ef82f747ccf6e1e6b2ba13cc378d3cb8dca851e7b024d80e8",
    "search Mm(3) rtilde K=2": "62b7c1dd91fd9395e58019ce54c204c522b4cf2dd619408d5d013125c7db8a2d",
    "search Mm(3) pr K=2": "62b7c1dd91fd9395e58019ce54c204c522b4cf2dd619408d5d013125c7db8a2d",
    "search Nm(3) pr K=2": "f2c99d6da1345e07263f26b877bd8fffbb83afc17155fab857caa3d2dd439405",
    "search Nm(3) rtilde K=2": "f2c99d6da1345e07263f26b877bd8fffbb83afc17155fab857caa3d2dd439405",
    "search Nm(4) pr K=2": "ec6cd081e7ef4c5e3ec0319ef8b50fbc55d14cc45c8ed68b084a7c5d95b45357",
    "search Nm(4) rtilde K=2": "ec6cd081e7ef4c5e3ec0319ef8b50fbc55d14cc45c8ed68b084a7c5d95b45357",
    "search Nm(5) pr K=2": "8aef6a258bbac8e248790283f42c855fff6c9e0175038cb383d58ad098e5369a",
    "search Nm(5) rtilde K=2": "8aef6a258bbac8e248790283f42c855fff6c9e0175038cb383d58ad098e5369a",
    "search Nm(6) pr K=2": "c730e480a2fb72976df2a4eec261a2a2bbe9e4ff3a72fdc8f59c16cc444851a0",
    "search Nm(6) rtilde K=2": "c730e480a2fb72976df2a4eec261a2a2bbe9e4ff3a72fdc8f59c16cc444851a0",
    "search Nm(7) pr K=2": "4093dced129e0aa01c6fdf8d5d749b867d87fcebbf14f8fbfa103f3afa061ae9",
    "search Nm(7) rtilde K=2": "4093dced129e0aa01c6fdf8d5d749b867d87fcebbf14f8fbfa103f3afa061ae9",
    "search Mm(4) rtilde K=2": "42520388c7efdb3022c408e557cc194d3e7e236ec8efa86f3ad03d2dcf067178",
    "search Mm(4) pr K=2": "42520388c7efdb3022c408e557cc194d3e7e236ec8efa86f3ad03d2dcf067178",
    "search Nm(3) pm K=2": "06bb5ada9c526e58bdd38f33666e6f2c7e6be7d717fdb8cae7c5fa7f312880f4",
    "search Mm(3) rtilde K=3": "bfda6dfb82f0af25e822a65bc254237e8f49ceca17b9b326ff64f6a4e50b798b",
    "verify-paper": "1bad4695a5fe71c8dc5703840f1ea8dc776e801f4531569ee4956223fc21aca8",
    "verify-paper --json": "929e5ebf4985919df39231e1f2beec72c348014a654f82d76a717c46b4a3872d",
}


#: sha256 of the file ``zecomm channel --csv`` writes, per family and m
RECORDED_CSV = {
    "Nm(2)": "81883db4bc25ab559b610f5807dfe7f430b0a1b32696da085b71775a27dc18d9",
    "Nm(3)": "3a93563550cc1137a2f946b25c45b4bc4c44dd790f7245cade587ae9062030d8",
    "Nm(4)": "ff9b1cd8b2c8679d0aa2db38126e99ba4231873223fc10e74d96c3eeacb63bed",
    "Nm(5)": "7be527643b21f01d8e4ba42a8202bbf5893881ceac228f3a7fca5a4befcd9ace",
    "Nm(6)": "7367c2d63b6b4a30617cf0f5f3104522accd83103899b927fc878b943f2d5369",
    "Mm(2)": "691d858cd6008f1b172ab7ff384373a1dc8d14af61cab4fda0a486e52eb739fe",
    "Mm(3)": "4ef44620702aa5ee556621857b926cd3f40a3a9087141984a0e085b864b360d5",
    "Mm(4)": "278034c3d18c901788f6a25a196d455535d0fe2e045dd84067fad0016f433b65",
    "Mm(5)": "7b2e506774f47bc50b4b7603047b1d8ecda2a8ecc33c356a5628c261646d6e56",
}


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


#: (family, m, box family, K) of every found case of ``ASSISTED_ANSWERS`` in
#: ``tests/test_protocols.py``
FOUND_SEARCHES = [
    ("Nm", 2, "pr", 2),
    ("Mm", 2, "rtilde", 2),
    ("Mm", 3, "rtilde", 2),
    ("Mm", 3, "pr", 2),
    ("Nm", 3, "pr", 2),
    ("Nm", 3, "rtilde", 2),
    ("Nm", 4, "pr", 2),
    ("Nm", 4, "rtilde", 2),
    ("Nm", 5, "pr", 2),
    ("Nm", 5, "rtilde", 2),
    ("Nm", 6, "pr", 2),
    ("Nm", 6, "rtilde", 2),
    ("Nm", 7, "pr", 2),
    ("Nm", 7, "rtilde", 2),
    ("Mm", 4, "rtilde", 2),
    ("Mm", 4, "pr", 2),
    ("Nm", 3, "pm", 2),
    ("Mm", 3, "rtilde", 3),
]


def found_protocol(family, m, box_family, k):
    found, protocol = exhaustive_assisted_search(CHANNEL_FAMILIES[family](m), BOX_FAMILIES[box_family][1](m), k)
    assert found
    return protocol_to_json(protocol)


def nm2_squared():
    t2, pm2 = make_theorem2_protocol(2), make_extremal_box(2, 2)
    return tensor_protocols(t2, t2, make_nm(2), make_nm(2), pm2, pm2)


def mm3_times_nm2():
    return tensor_protocols(make_theorem3_protocol(3), make_theorem2_protocol(2), make_mm(3), make_nm(2),
                            make_rtilde_box(3), make_extremal_box(2, 2))


def verify_paper(*flags) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify-paper", *flags]) == 0
    return out.getvalue()


def verify_paper_text():
    return re.sub(r"^(\[\w+\] \S+ +)\d+\.\d{3}s", r"\1-", verify_paper(), flags=re.M)


def verify_paper_json():
    payload = json.loads(verify_paper("--json"))
    for check in payload["checks"]:
        check["elapsed_seconds"] = 0
    return json.dumps(payload, indent=1)  # a string, so the digest keeps the key order


BUILDS = {
    **{f"Nm({m})": lambda m=m: channel_to_json(make_nm(m)) for m in range(2, 13)},
    **{f"Mm({m})": lambda m=m: channel_to_json(make_mm(m)) for m in range(2, 10)},
    **{f"theorem2({m})": lambda m=m: protocol_to_json(make_theorem2_protocol(m)) for m in range(2, 13)},
    **{f"theorem3({m})": lambda m=m: protocol_to_json(make_theorem3_protocol(m)) for m in range(2, 10)},
    "Nm2xNm2": lambda: protocol_to_json(nm2_squared()),
    "Mm3xNm2": lambda: protocol_to_json(mm3_times_nm2()),
    **{f"search {f}({m}) {b} K={k}": lambda case=(f, m, b, k): found_protocol(*case) for f, m, b, k in FOUND_SEARCHES},
    "verify-paper": verify_paper_text,
    "verify-paper --json": verify_paper_json,
}


def test_every_build_has_a_recorded_digest():
    assert sorted(BUILDS) == sorted(RECORDED)


@pytest.mark.parametrize("name", list(BUILDS))
def test_output_matches_the_recorded_digest(name):
    assert digest(BUILDS[name]()) == RECORDED[name]


@pytest.mark.parametrize("name", list(RECORDED_CSV))
def test_channel_csv_matches_the_recorded_digest(name, tmp_path):
    family, m = re.fullmatch(r"(\w+)\((\d+)\)", name).groups()
    csv_path = tmp_path / "c.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["channel", "--family", family, "--m", m, "--out", str(tmp_path / "c.json"),
                     "--csv", str(csv_path)]) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == RECORDED_CSV[name]
