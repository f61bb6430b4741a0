"""Byte-level pins of the command line output.

Each case runs ``main`` in process from a directory holding the spec and
problem files below, and compares the sha256 of stdout and the exit code
with the values recorded here.  Usage errors print nothing on stdout, so
their cases pin the empty digest and exit code 2.
"""

import hashlib
import io
import json
import shlex
import sys

import pytest

from ctcbox.cli import COUNTS, PHASES, main

# table.json mixes the pr box (weight 1/3) with a local box that always
# answers (0, 0); leaky.json is the deterministic table of pr with bob looped,
# which signals.
FILES = {
    "table.json": {"parties": 2, "table": [
        {"in": [0, 0], "out": [0, 0], "p": "5/6"},
        {"in": [0, 0], "out": [1, 1], "p": "1/6"},
        {"in": [0, 1], "out": [0, 0], "p": "5/6"},
        {"in": [0, 1], "out": [1, 1], "p": "1/6"},
        {"in": [1, 0], "out": [0, 0], "p": "5/6"},
        {"in": [1, 0], "out": [1, 1], "p": "1/6"},
        {"in": [1, 1], "out": [0, 0], "p": "2/3"},
        {"in": [1, 1], "out": [0, 1], "p": "1/6"},
        {"in": [1, 1], "out": [1, 0], "p": "1/6"}]},
    "leaky.json": {"parties": 2, "table": [
        {"in": [0, 0], "out": [0, 0], "p": "1"},
        {"in": [0, 1], "out": [1, 1], "p": "1"},
        {"in": [1, 0], "out": [0, 0], "p": "1"},
        {"in": [1, 1], "out": [0, 1], "p": "1"}]},
    "quad.json": {"parties": 4,
                  "constraint": [[0, 1], [1, 2, 3], [0, 3]]},
    "oscillating.json": {
        # the 12-dimensional permutation that only its Cesaro average settles
        "unitary": [[[1.0 if [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10][c] == r
                      else 0.0, 0.0] for c in range(12)] for r in range(12)],
        "rho_cr": [[[0.5 if r == c < 2 else 0.0, 0.0] for c in range(4)]
                   for r in range(4)],
        "d_loop": 3},
}
STDIN = json.dumps({"parties": 2, "constraint": [[0, 1]]})

# argv -> (exit code, sha256 of stdout)
GOLDEN = {
    "list": (0, "eacfd00c7693cafef283f30412f13f90f09f4a0864733080ab2158fa76d20484"),
    "list --json": (0, "5964ac128ea1bebb2bff6b1b6c30591449ec26a83d2e9c3f5066c2a1a8f3ec49"),
    "show --box pr": (0, "44cbc0ddf703eea92282b7620b9eda1a63d7d4a00c3b5fcae4a8e4caaf1d35c0"),
    "show --box pr --json":
        (0, "9e571dee8b90bfcc946b3abbc77e76d235d008f536731062b72e74ccca7c9739"),
    "show --box svetlichny":
        (0, "89b43c546f23bc6c45bd30723b9798181a43690a8fed8b78b69a91a9d40a8382"),
    "show --box svetlichny --json":
        (0, "4c76d0b483447b8e3c952a35ebb21e06a09f5514322d7df79b15aecee1cad700"),
    "show --box mermin1": (0, "6e6afd4eb7784a51e91169df69ca71143e222b39a4bf4bc02cf64c033a189016"),
    "show --box mermin2 --json":
        (0, "d1b27fb978b10b60c17ff3b10acd235e420de6738d86f2768f63001ddc7906c7"),
    "show --box PR --ctc bob":
        (0, "081b00f9344a8e6257c4457d7cb6786751be6f3a21e64be11949fb9cd719ff1a"),
    "show --box pr --ctc bob":
        (0, "081b00f9344a8e6257c4457d7cb6786751be6f3a21e64be11949fb9cd719ff1a"),
    "show --box pr --ctc bob --json":
        (0, "f5729c017c2e0a95c6fa70b23b88940f1a1e9022a97cc4b019eddf0f046c7175"),
    "show --box pr --ctc alice,bob":
        (0, "37e493eefe43ae8e4ffbd8d3221a8ac4bb2d0d2c2eaf3f5b721a4a6e7db2084e"),
    "show --box pr --ctc alice,bob --json":
        (0, "96d6562f9a2627b8f1adda93c1064f56ad611253caea53ac00763f35eaac1757"),
    "show --box svetlichny --ctc 0":
        (0, "21f5048bdc29fe310cf0ac5d0649551e1bad1c76819f234f9c772faa194b3340"),
    "show --box mermin1 --ctc bob,charlie --json":
        (0, "8e50e98de5f144a8949e388d3b9b02d2a74f2cea9e5cc724841d4df028f0b382"),
    "show --spec table.json":
        (0, "1049c415a5b16b87d04860749df2ec9e222c0a7a1de9ae1b9b544d26a8b0fde1"),
    "show --spec table.json --json":
        (0, "0b537cbc31479be2a5424f8f7e35b974cee1910e7fe4c2b0bc8c51ae3d2ed42a"),
    "show --box spec:table.json --ctc bob":
        (0, "cd5bbb8e96a5f5d6be06a234c8e31d887ff7f198654fc73acdbc70cf81daeb12"),
    "show --spec table.json --ctc 1 --json":
        (0, "ad37d195774244c21f048103cc57a4cf5396b4db4e4589f14c7dd3a17d102ac4"),
    "show --spec quad.json":
        (0, "c62624be09f91f7db540a543eb878e2466d44fd9a299cd73ab846fb0ea4e7f8e"),
    "show --spec quad.json --json":
        (0, "d583b6c70ad15017f74c0e7fa9692f5465efa8466c27434d453213e4e3bb6cc8"),
    "show --spec quad.json --ctc alice,2":
        (0, "c27f10e398df0dd09f8b44672b26c53c7c926f978f224f1113a9091c42a68108"),
    "show --spec quad.json --ctc alice --json":
        (0, "3b08ddc2a57b2f28699d07282926d787a1beb81869a501bc578e957a0a240e9a"),
    "show --spec - --json":
        (0, "9e571dee8b90bfcc946b3abbc77e76d235d008f536731062b72e74ccca7c9739"),
    "show --spec -": (0, "e5159624520b63ef0afe020f7ed3ebe7d66c98fb564d668a168fbe281eb2b219"),
    "verify": (0, "736204cf5f83632cbf58b302dc6a025b257f0632c9ca1eac7d31cdd3449b7a53"),
    "verify --json": (0, "98feb6e904a131a002b0899773f9b9488c1d06a21b788acd822a08a022a83963"),
    "verify no-signaling --box svetlichny":
        (0, "2852ba2ee462ee425013bf9c0bc3dc2109b203657827dc4a04a3c282e09632ac"),
    "verify --box pr --json":
        (0, "5dba75278d8fdaef3aebbb4dcb4b5e4de5570566b9ec541d174121dbd53e9811"),
    "verify --spec table.json":
        (0, "07095ae1b878c7f3f28dba4e9d2f8671ad5c965160b8feafcbd550b00b3b4faf"),
    "verify --spec table.json --json":
        (0, "23bef0d5e01453e59eca2353ae8dd50ac9c09ec4dafcabbd80f4607f237274dd"),
    "verify --spec leaky.json":
        (1, "fc25ec1304eeee29c84ae2a5410370c1cefd687fb7d1f7f485bc36d27f1999c9"),
    "verify --spec leaky.json --json":
        (1, "7cb9ef3f6c5740c1a9af48e4a79d9f39f7844fc3531811cc5eb338ee837870ca"),
    "verify --spec quad.json":
        (0, "d33f9f47a56f2e76e5502e025d48389b6e50064d4ab696e9ef246b546c5a6e16"),
    "verify --spec quad.json --json":
        (0, "5338fd12cfa108b33e64c5b04e20ac5a06bf0e7cfa55810af594af5ad3913bb8"),
    "analyze --box svetlichny --ctc alice --sender alice --receivers bob,charlie":
        (0, "bfd6ed6e5f44d9f9ced6849f4436a10c0f8c67f0d634b136cdbec9bae4d1d823"),
    "analyze --box svetlichny --ctc alice --sender alice --receivers bob,charlie --json":
        (0, "4fbedc307c79188de010d222a9e526c50ecfc2b7b440806de37aafd6978a214b"),
    "analyze --box pr --ctc bob --sender bob --receivers alice":
        (0, "05ed9883d58df869b02d53818de497b234266d95635622abdefcaec7f461c39b"),
    "analyze --box pr --ctc bob --sender 1 --receivers 0 --json":
        (0, "3256f95bc578ca7ed8d70ad387cca73c5fb7bb97f8fcda47ba721059a95edb8f"),
    "analyze --box mermin2 --ctc alice --sender alice --receivers 'bob charlie'":
        (0, "78193744101bd66857e973ac694f14c4eba106398f120a79eb9da6b284b3459f"),
    "analyze --box mermin1 --ctc bob,charlie --sender alice --receivers bob":
        (0, "0eff9964ae24908d44236b4cff0759124e47c6b5f5d809bb60d3fbcb28485526"),
    "analyze --box svetlichny --ctc alice":
        (0, "d6ca90b63bec261127a0c67261807450fa680a3cbb0fa35052910211afcff748"),
    "analyze --box svetlichny --ctc alice --json":
        (0, "5335489ff37e3a1a9f9ec2161746b53d3349c53bab4da88f887ee84d4d994eef"),
    "analyze --box svetlichny --ctc bob,charlie":
        (0, "9855d103e6a5196cbf0e724de651204cbea4bb02c428ab15bbeb6aa03dd75491"),
    "analyze --box pr --ctc bob":
        (0, "85eaf72f1d3c0506be077f47480689e245d0fafb480a9450e4456fde52b98295"),
    "analyze --box mermin2":
        (0, "ee5dbe1580ea617eb3031b5aec6bf80f59c427e3f1c6689964f418ccd2958f20"),
    "analyze --box mermin1 --ctc alice --json":
        (0, "f7790d1319fa6bfe065cab1f82404d5345c108bef8b1f646fe3ba5f5a42fe2d8"),
    "analyze --spec table.json --ctc bob":
        (0, "c65606f80c946f395632bd131358135ae4df5fadb79cf07e59900ccce814bf8a"),
    "analyze --spec table.json --ctc bob --json":
        (0, "e0780ccb0adf9e535c0706e1e4961d9d4373da684cc7d7daec2e13383f556b3c"),
    "analyze --spec table.json --ctc alice --sender alice --receivers bob":
        (0, "b7ee59613569fdbde375c28606564a5f56495f5841b2f507e0a3b6913c0c694f"),
    "analyze --spec quad.json --ctc alice":
        (0, "7ccb23d56398e8c4661930a90c5fdeb74f1ecc282642119d244c339ba0e35a7e"),
    "analyze --spec quad.json --ctc alice --json":
        (0, "7978e8f54ab6bbbde14e41cae8e97a64ea8cce36dfc9d7874ca7a58a04daf242"),
    "analyze --spec quad.json --ctc 0,3 --sender 0 --receivers 1,2":
        (0, "7bde8d1d9c3293a7a1fbe7c49d5331508351091ddd672ad74d3413a5ea10fb9b"),
    "analyze --spec quad.json --ctc 1 --sender 1 --receivers 0,2,3 --json":
        (0, "8a5fdb28ba5c9f1c09615a99efdd13981d0897539235f39909cc3e2502e7f2f6"),
    "deutsch --example swap":
        (0, "1884c851059e810991fe29eda9deac43b06f30974998469a008868f4dc896414"),
    "deutsch --example grandfather":
        (0, "98102fb57398872049c8041e40b9c327f8136104a4f7b77d00289afaf033b6ff"),
    "deutsch --example cnot":
        (0, "2078dc15bc14458838066fc7e03c317e70c3ac53f4f3bf7bafaaa472689d11d6"),
    "deutsch --example product":
        (0, "1606f8363234f71e4cdfeaac3ff7f1668c896cad2f6d00adbefaadf16ce6d00e"),
    "deutsch --example SWAP --crosscheck":
        (0, "d9089602f677c78fcbe05a3863002919e30a4022fbc2c13cecc8b43acbfcd7ef"),
    "deutsch --example swap --crosscheck --json":
        (0, "426a699aa7423f1657c567208a14ad1127d3c02de2852094755ec7c93c547fa4"),
    "deutsch --example grandfather --crosscheck":
        (0, "3271184c96a4ae292632b046b46126d0c3cb762a29a49503391ce117bf7ca443"),
    "deutsch --example cnot --crosscheck":
        (0, "f800bbdfb2f9e18f8cb7664ac6e960b9d4001cd49ec0566d1597765ec65483b8"),
    "deutsch --example cnot --crosscheck --json":
        (0, "14acd52a46798d1ea7beaadd8a7eb1b2be71e04484904196363cc3a786a43a21"),
    "deutsch --example product --json":
        (0, "2b9a0e0e42e38b9b44e287a95dd6a9de2d2cc81651be670e202b011a89a82748"),
    "deutsch --example swap --max-iter 5":
        (0, "1884c851059e810991fe29eda9deac43b06f30974998469a008868f4dc896414"),
    "deutsch --example swap --tol 1e-6":
        (0, "1884c851059e810991fe29eda9deac43b06f30974998469a008868f4dc896414"),
    "deutsch --file oscillating.json":
        (0, "0987c59c821ac70a6283bf44507008ce04aee7fc3d1d654a44775c715ffe20fa"),
    "deutsch --file oscillating.json --json":
        (0, "d0be1571bb51ab1c85987a72e5b4c53cbbe624765c65103f17c9dd43227d3cda"),
    "deutsch --file oscillating.json --max-iter 0":
        (1, "50fccf2d52718a2b15851cf8cf33cd137f3982de789c8c7273bb752a50518da5"),
    "deutsch --file oscillating.json --max-iter 0 --json":
        (1, "22bb04e7fb71fcb22872b4ddfa72caaf8eac7e86924eba041da3b8672740d191"),
    "deutsch --file oscillating.json --crosscheck":
        (0, "ee51d8f8f3ff6cca67206440696aa72e79b3af7a3f1a611bb46bb5339600b5df"),
    "reproduce": (0, "a82d5962adb6ae45bc3bb05571c0f458cea2d6dc44a4324008195fc4a967227b"),
    "reproduce --all": (0, "a82d5962adb6ae45bc3bb05571c0f458cea2d6dc44a4324008195fc4a967227b"),
    "reproduce --table I": (0, "e21097717b56a888b91cfebae065fc37ea4eb76ec69cfaad1a6a4ded99c0babc"),
    "reproduce --table iv":
        (0, "3ae7aa5d8b8764440da85dd1f0585d450d17b651424d94aa8ea796df6e38c02d"),
    "reproduce --table III --json":
        (0, "888f681ee5895238a4d14a023ed6369ef160cf592f2a697061f35558a87b1b77"),
    "reproduce --all --json":
        (0, "e422d35282d12e110638e7e8412eac91677e439ff3ffdb3d7335020aa0787da8"),
    "show": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "show --box bogus": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "show --spec missing.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "show --spec bad.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "show --box pr --ctc dave":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "show --box pr --ctc 2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "show --box pr --ctc charlie":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box pr --ctc bob --sender alice":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box pr --ctc bob --receivers alice":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box pr --ctc bob --sender alice --receivers alice":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box pr --ctc bob --sender alice,bob --receivers alice":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --sender alice --receivers bob":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box pr --ctc alice,bob":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box pr --ctc alice,bob --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze --box svetlichny --sender alice --receivers ''":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify positivity --box svetlichny":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --spec bad.json --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch --example bogus":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch --example swap --file oscillating.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch --example product --crosscheck":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch --file missing.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch --file bad.json --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "deutsch --file table.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reproduce --table V": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reproduce --table V --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bogus": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def run_case(argv: str, directory, monkeypatch, capsys) -> tuple[int, str, str]:
    """The exit code, the sha256 of stdout, and stderr; a ``deutsch`` case
    is skipped on a Python without numpy."""
    if argv.startswith("deutsch"):
        pytest.importorskip("numpy")
    for name, data in FILES.items():
        (directory / name).write_text(json.dumps(data))
    (directory / "bad.json").write_text("{not json")
    monkeypatch.chdir(directory)
    monkeypatch.setattr(sys, "stdin", io.StringIO(STDIN))
    try:
        code = main(shlex.split(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_output_is_pinned(argv, tmp_path, monkeypatch, capsys):
    assert run_case(argv, tmp_path, monkeypatch, capsys)[:2] == GOLDEN[argv]


def traced_counts(argv: str, phase: str) -> set[str]:
    """The count keys documented for this phase of this invocation: all of
    a constrain phase's, and an analyze phase's for a signaling report,
    the scan's last three only for a full scan."""
    documented = COUNTS.get(phase, ())
    if phase == "analyze" and not argv.startswith("analyze"):
        return set()  # a verdict
    if phase == "analyze" and "--sender" in argv:
        return set(documented[:3])
    return set(documented)


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_tracing_adds_only_phase_lines_to_stderr(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CTCBOX_TRACE", raising=False)
    _, _, quiet = run_case(argv, tmp_path, monkeypatch, capsys)
    monkeypatch.setenv("CTCBOX_TRACE", "1")
    code, digest, err = run_case(argv, tmp_path, monkeypatch, capsys)
    assert (code, digest) == GOLDEN[argv]
    lines = err.splitlines(keepends=True)
    traced = [line for line in lines if line.startswith('{"phase": ')]
    assert "".join(line for line in lines if line not in traced) == quiet
    assert '"phase"' not in quiet
    phases = [json.loads(line) for line in traced]
    for phase in phases:
        assert phase["ms"] >= 0
        counts = {key: value for key, value in phase.items() if key not in ("phase", "ms")}
        assert set(counts) == traced_counts(argv, phase["phase"])
        assert all(type(value) is int and value >= 0 for value in counts.values())
    # each phase once, in the order they run, and render only for an output
    order = [PHASES.index(phase["phase"]) for phase in phases]
    assert order == sorted(set(order))
    assert (PHASES.index("render") in order) == (code in (0, 1))
