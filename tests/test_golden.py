"""Golden CLI outputs: the SHA-256 of stdout for every subcommand and choice.

The cases are generated from build_parser().  Each subcommand runs at
N = 60 (props: --max-n 60) under every combination of its options that
take choices, with the --format default as one more choice, and with and
without each on/off flag.  A case without a pinned digest fails, so a new
format or choice must come with its digest; USAGE_ERROR marks the cases
that exit 2: with a one-line error, or, for the REFUSED options that a
subcommand does not take, with argparse's message.  LARGE pins a few
integer series at N well past 60, where every decimal width of the index
column and the block boundaries of the decimal writer are crossed, and
both ratio series at N = 20,000, past EXACT_RATIO_LIMIT = 10,000, where
final_value turns from an exact Fraction to a float.  Every ratio entry
is float() of the exact partial sum; tests/test_analysis.py checks the
series against that reference.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools

import pytest

from trimobius.cli import build_parser, main

N = "60"
USAGE_ERROR = "exit 2"


def _option_axes(sub: argparse.ArgumentParser):
    """The fixed arguments of one subcommand and the choices of each option."""
    fixed, axes = [], []
    for action in sub._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if action.dest in ("limit", "max_n"):
            fixed += [flag, N]
        elif action.choices:
            default = [[]] if action.default is None else []
            axes.append(default + [[flag, c] for c in action.choices])
        elif isinstance(action, argparse._StoreTrueAction):
            axes.append([[], [flag]])
    return fixed, axes


def _cases() -> list[list[str]]:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = []
    for name, sub in subparsers.choices.items():
        fixed, axes = _option_axes(sub)
        for combo in itertools.product(*axes):
            cases.append([name, *fixed, *itertools.chain.from_iterable(combo)])
    return cases


# Options that a subcommand does not take, which argparse refuses: verify
# always checks both kinds.
REFUSED = [["verify", "--limit", N, "--kind", kind] for kind in ("triangular", "identity")]

CASES = _cases() + REFUSED

GOLDEN: dict[str, str] = {
    "mobius --limit 60 --kind triangular":
        "bfa0c36d235cb05bc2f41a92b8e7da8b307789b4bd8593af0f89505f58d7749e",
    "mobius --limit 60 --kind triangular --format bfile":
        "bfa0c36d235cb05bc2f41a92b8e7da8b307789b4bd8593af0f89505f58d7749e",
    "mobius --limit 60 --kind triangular --format csv":
        "f9eecca1a0f88c8fbedfa1281c6fb31a1a4d907fa94b7191f0bc0db84d40187b",
    "mobius --limit 60 --kind triangular --format json":
        "460020a87b2e4870a41e617f74c91d78688ae6fe81929d396a998a824405aa58",
    "mobius --limit 60 --kind identity":
        "ddd7cf5aa99c128c1801744d26245f1ff21e7e88275471cdffde37562cf9779e",
    "mobius --limit 60 --kind identity --format bfile":
        "ddd7cf5aa99c128c1801744d26245f1ff21e7e88275471cdffde37562cf9779e",
    "mobius --limit 60 --kind identity --format csv":
        "00305d18cd74243aaf051612289dc14b659297225e7da359a7986f2f276aa495",
    "mobius --limit 60 --kind identity --format json":
        "ee84b9f70105a81ea9113191b97acd01864657b958ca532d45fcb8d36117cdae",
    "sums --limit 60 --kind triangular":
        "ece7b005b8ee80bb0032fb2f09670c540d70ea938a9ddbdf83b6d33244a7c90a",
    "sums --limit 60 --kind triangular --format bfile":
        "ece7b005b8ee80bb0032fb2f09670c540d70ea938a9ddbdf83b6d33244a7c90a",
    "sums --limit 60 --kind triangular --format csv":
        "49deb9d9a040fb6e18b6e5c058202d66893805c10e3b3843c3edf88af1ab913e",
    "sums --limit 60 --kind triangular --format json":
        "81211b5aac157074281441f784234a8e284ae23f66cef3102df4ec9d4fdcbe88",
    "sums --limit 60 --kind triangular --format svg":
        "81160e6a11ec8a9a35c208a801f4b623775a3da4b3c92afb8f664655359233a1",
    "sums --limit 60 --kind identity":
        "992007b4a00684cea4b44751db313c6ad70161b4682a4d057ec34b048f652e15",
    "sums --limit 60 --kind identity --format bfile":
        "992007b4a00684cea4b44751db313c6ad70161b4682a4d057ec34b048f652e15",
    "sums --limit 60 --kind identity --format csv":
        "7315f16f22e313682ef512e1bcbb57f75053000925280927b8efe8faa17d68c1",
    "sums --limit 60 --kind identity --format json":
        "2ebd0570826c01f7b8c3390d9b804a4c710d06f33c5e2e15bbb502fefead39d7",
    "sums --limit 60 --kind identity --format svg":
        "65e13904ea59fcd57dc9e1a695e639c3987f30014d6462343fe7f4d93be8b9bf",
    "abs-sums --limit 60 --kind triangular":
        "180c6d55a100be359595f32e07bfb51ef6a2f3220240213480fe926058ed460b",
    "abs-sums --limit 60 --kind triangular --format bfile":
        "180c6d55a100be359595f32e07bfb51ef6a2f3220240213480fe926058ed460b",
    "abs-sums --limit 60 --kind triangular --format csv":
        "552fdc23ea32905ee769d1ebcb05010f99ff7ed42512a45ae6bca5ac9f08c907",
    "abs-sums --limit 60 --kind triangular --format json":
        "3dadbb09f72e8f9c98bf1a1a20f1a3540772e164405253055f6534fc74efd133",
    "abs-sums --limit 60 --kind triangular --format svg":
        "0fac5b9a4e1228d0a79228c3c5c97349f231dee0dd1280bf73b6a80544a2b78c",
    "abs-sums --limit 60 --kind identity":
        "f838aeff5ebff34091f767321d74fabe52bb53b9eccaea6c20a3751b9a0ad037",
    "abs-sums --limit 60 --kind identity --format bfile":
        "f838aeff5ebff34091f767321d74fabe52bb53b9eccaea6c20a3751b9a0ad037",
    "abs-sums --limit 60 --kind identity --format csv":
        "4160c40e82ebd79d66759ccee67d9ed8f9c13153fdb7cef1ceda1d882a121253",
    "abs-sums --limit 60 --kind identity --format json":
        "0b9e3d1a98302f8b537e59f6cff5a882e4db305678abd16dd90259d5b3db0475",
    "abs-sums --limit 60 --kind identity --format svg":
        "5f62b82a8d584f4e4b0f58c83cc1a0d89aef234cdcdea795e2f87a4ed65df302",
    "ratio-sums --limit 60 --kind triangular --denom index":
        "40fe3bb15a1211ddb3620dbc1c7309642efb4aec807318bd4795e6a152739acd",
    "ratio-sums --limit 60 --kind triangular --denom value":
        "b3f5ec64a3c001e686c5ef31189d8d33668afbded97b8355cd646894fdd91c0e",
    "ratio-sums --limit 60 --kind triangular --format csv --denom index":
        "40fe3bb15a1211ddb3620dbc1c7309642efb4aec807318bd4795e6a152739acd",
    "ratio-sums --limit 60 --kind triangular --format csv --denom value":
        "b3f5ec64a3c001e686c5ef31189d8d33668afbded97b8355cd646894fdd91c0e",
    "ratio-sums --limit 60 --kind triangular --format json --denom index":
        "a2fc4184d9381dfc994b2155b45a22c7c40486ebcaa86160af92ddc869696cff",
    "ratio-sums --limit 60 --kind triangular --format json --denom value":
        "25addcc59d0881793457e9e4803474c9e4c07df28801775713ca9c92020e36cb",
    "ratio-sums --limit 60 --kind triangular --format svg --denom index":
        "56574a17cbd18f323309f16e34ede20949662638b917e9d5c2eb60e2668c980d",
    "ratio-sums --limit 60 --kind triangular --format svg --denom value":
        "beb137e4e53dbdab6df54d16ffa425852ac024de0d9539576d050691412391d1",
    "ratio-sums --limit 60 --kind identity --denom index":
        "d16e9d095cd5aec8a48086f2ce8912b144461471f88e0b7ee2f9c5a1dc401d33",
    "ratio-sums --limit 60 --kind identity --denom value":
        "d16e9d095cd5aec8a48086f2ce8912b144461471f88e0b7ee2f9c5a1dc401d33",
    "ratio-sums --limit 60 --kind identity --format csv --denom index":
        "d16e9d095cd5aec8a48086f2ce8912b144461471f88e0b7ee2f9c5a1dc401d33",
    "ratio-sums --limit 60 --kind identity --format csv --denom value":
        "d16e9d095cd5aec8a48086f2ce8912b144461471f88e0b7ee2f9c5a1dc401d33",
    "ratio-sums --limit 60 --kind identity --format json --denom index":
        "491e9834a375a11edbbf3a4a3b3e547ecb997e8d24568b7102e04009a9ffc2a9",
    "ratio-sums --limit 60 --kind identity --format json --denom value":
        "edb8a8251c748e6581935288efc1667901d95631ef80bfb5bd4ec28f53f04755",
    "ratio-sums --limit 60 --kind identity --format svg --denom index":
        "9e5caa92690dc2d2efcb55d59342d4db45280d0daa58459afd3225ea29dde121",
    "ratio-sums --limit 60 --kind identity --format svg --denom value":
        "cf0e7ea408910da73f80575eb5299a0034c732739654e915b4e97fd136811686",
    "zeta-matrix --limit 60 --kind triangular":
        "924ea24ae7e12d0638dbc570d145b40c3f9b0013127fd0d80cba06efd4eaf372",
    "zeta-matrix --limit 60 --kind triangular --format csv":
        "924ea24ae7e12d0638dbc570d145b40c3f9b0013127fd0d80cba06efd4eaf372",
    "zeta-matrix --limit 60 --kind triangular --format json":
        "44f3feee852c904cf03e8407736b0c861b116f007038fdc8c4c6d84e7cdf60cc",
    "zeta-matrix --limit 60 --kind identity":
        "182460f5ca81d54bcbd3d43353a9043c1f00d190b0d6643ca2d757263e6740f8",
    "zeta-matrix --limit 60 --kind identity --format csv":
        "182460f5ca81d54bcbd3d43353a9043c1f00d190b0d6643ca2d757263e6740f8",
    "zeta-matrix --limit 60 --kind identity --format json":
        "4933fac77f853d797a9ffad5a4e763c27b21d5104b2ddd7728e5a8ecd39c3095",
    "mobius-matrix --limit 60 --kind triangular":
        "17ea3b88828a60e233e614d92ec459761bb6c535de9cdd30703db2d885189345",
    "mobius-matrix --limit 60 --kind triangular --format csv":
        "17ea3b88828a60e233e614d92ec459761bb6c535de9cdd30703db2d885189345",
    "mobius-matrix --limit 60 --kind triangular --format json":
        "440d1d5a4003576da497a9600432c72db3d51ace393d3949ad26cc0786a5bf00",
    "mobius-matrix --limit 60 --kind identity":
        "67be690e88edda857f77f99156c9b43cf41aeabd6f15bad6b4f98ab18618fa83",
    "mobius-matrix --limit 60 --kind identity --format csv":
        "67be690e88edda857f77f99156c9b43cf41aeabd6f15bad6b4f98ab18618fa83",
    "mobius-matrix --limit 60 --kind identity --format json":
        "ef631df64e4f7babf8dd86fab7c96edd118621529c8dfa3cff7b3603325fb782",
    "hasse --limit 60 --kind triangular":
        "6a07a6f0998213a465eba649dfa3b8a03cf5c13af6a6c32bc0cccb1d821d9070",
    "hasse --limit 60 --kind identity":
        "e92429ddbb7ba730776014c732798192f70631a5c5178eae8f2f9c08b999c52b",
    "heatmap --limit 60 --kind triangular --matrix zeta":
        "be238e9bd37edc8517ab8939089a8b92b72239a856a51c943b05aa9daf3215fa",
    "heatmap --limit 60 --kind triangular --matrix mobius":
        "3208d5b5ea5f4b9b78c3417e7a80282aa2ec6f724f41886e97dc598ba8e283b1",
    "heatmap --limit 60 --kind identity --matrix zeta":
        "d2af55e103c8bfd32703ce5f1d0f11e388166b9437d4736ed411b1176e34e4f5",
    "heatmap --limit 60 --kind identity --matrix mobius":
        "15d32231357eb5763e5bbda13795a687258101a699c51c0527a68a609f4fdbbe",
    "records --limit 60 --kind triangular":
        "ac3c8bdc526f361bec3b7ed2f25237281a4a59dc66bbafc4a1a56f71f0a65da6",
    "records --limit 60 --kind triangular --signed":
        "ac3c8bdc526f361bec3b7ed2f25237281a4a59dc66bbafc4a1a56f71f0a65da6",
    "records --limit 60 --kind triangular --format csv":
        "ac3c8bdc526f361bec3b7ed2f25237281a4a59dc66bbafc4a1a56f71f0a65da6",
    "records --limit 60 --kind triangular --format csv --signed":
        "ac3c8bdc526f361bec3b7ed2f25237281a4a59dc66bbafc4a1a56f71f0a65da6",
    "records --limit 60 --kind triangular --format json":
        "7f7ae87821bc705488559537460b9234be2e42da813ae0ae60983d871a351310",
    "records --limit 60 --kind triangular --format json --signed":
        "34624d394600e53a4d3c026d4bda257b46196243f0b3c0887c63d9020a230663",
    "records --limit 60 --kind identity":
        "f54218eb0ca29a3f2dae17a59883ed1072ee2fa07d6c7c13ffe2daa8c42e0f51",
    "records --limit 60 --kind identity --signed":
        "f54218eb0ca29a3f2dae17a59883ed1072ee2fa07d6c7c13ffe2daa8c42e0f51",
    "records --limit 60 --kind identity --format csv":
        "f54218eb0ca29a3f2dae17a59883ed1072ee2fa07d6c7c13ffe2daa8c42e0f51",
    "records --limit 60 --kind identity --format csv --signed":
        "f54218eb0ca29a3f2dae17a59883ed1072ee2fa07d6c7c13ffe2daa8c42e0f51",
    "records --limit 60 --kind identity --format json":
        "72fd28ca615f4f409b8475cc9860dbfcc4584f82dc759763e3a697af8508da88",
    "records --limit 60 --kind identity --format json --signed":
        "ccb20365e474b7ce9055aace6b1aef5118433ed490d0bc496a64d01744135a10",
    "props --max-n 60":
        "e7bd51a90f1f2be75eb35f0537dc091d7f6f9523996d4593d5408d6f282494ec",
    "classical --limit 60 --series mobius":
        "ddd7cf5aa99c128c1801744d26245f1ff21e7e88275471cdffde37562cf9779e",
    "classical --limit 60 --series mertens":
        "992007b4a00684cea4b44751db313c6ad70161b4682a4d057ec34b048f652e15",
    "classical --limit 60 --format bfile --series mobius":
        "ddd7cf5aa99c128c1801744d26245f1ff21e7e88275471cdffde37562cf9779e",
    "classical --limit 60 --format bfile --series mertens":
        "992007b4a00684cea4b44751db313c6ad70161b4682a4d057ec34b048f652e15",
    "classical --limit 60 --format csv --series mobius":
        "00305d18cd74243aaf051612289dc14b659297225e7da359a7986f2f276aa495",
    "classical --limit 60 --format csv --series mertens":
        "7315f16f22e313682ef512e1bcbb57f75053000925280927b8efe8faa17d68c1",
    "classical --limit 60 --format json --series mobius":
        "a221ee98a5cd8e7765922b49e32da679eff48bbc5dcbae993a2d4c80666694aa",
    "classical --limit 60 --format json --series mertens":
        "9956071da58ae425e7a971e203809464d8fbf4f374cfc33ac46738231e55f094",
    "classical --limit 60 --format svg --series mobius": USAGE_ERROR,
    "classical --limit 60 --format svg --series mertens":
        "ced4edc353f0a500ce8773360cfee0e0c67c3516682801a82544cfa58fcfa798",
    "verify --limit 60":
        "a12b7cb43c9d9134b5bb1b35e9096b66775d9e92e7611d1cc92b02edd6782a87",
    "verify --limit 60 --kind triangular": USAGE_ERROR,
    "verify --limit 60 --kind identity": USAGE_ERROR,
    "oeis-diff --limit 60 --kind triangular --series mobius":
        "caaaf84f06dfced68fb56301de6c10ce06077cf8b15b5301e28ef2884f073545",
    "oeis-diff --limit 60 --kind triangular --series sums":
        "caaaf84f06dfced68fb56301de6c10ce06077cf8b15b5301e28ef2884f073545",
    "oeis-diff --limit 60 --kind identity --series mobius": USAGE_ERROR,
    "oeis-diff --limit 60 --kind identity --series sums": USAGE_ERROR,
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_digest(argv, capsys):
    key = " ".join(argv)
    assert key in GOLDEN, f"no pinned digest for {key!r}"
    if argv in REFUSED:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert GOLDEN[key] == USAGE_ERROR and exc.value.code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[3:])}\n")
        return
    code = main(argv)
    out, err = capsys.readouterr()
    if GOLDEN[key] == USAGE_ERROR:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[key]


LARGE: dict[str, str] = {
    "classical -n 200000 --series mertens --format bfile":
        "0224532d5a7bfee9b7806f7bd9bc8a56f977b68d888e018ea18eacad80b7ec78",
    "classical -n 200000 --series mertens --format csv":
        "8a8a471eac53523f0b0ddf3ab7c84d52abed84b9a7e58b5377fb88c644155fa4",
    "classical -n 200000 --series mertens --format json":
        "ccd7a8c3e4abb2fddddb4a7c150f224fd8c67447e40bc68428623c96be8d91d2",
    # slope_lsq summed over several pairwise leaves, N not a multiple of 8
    "classical -n 200003 --series mertens --format json":
        "b0eb8bcaff1c8eb64a34818124687f893694a667ae5d3db426513363c8454a15",
    "ratio-sums -n 100000 --denom index --format json":
        "c7806cd4694b241d71b3a587422cc8e2eed521b2f32802542ecdde34b9e8aa9f",
    "sums -n 20000 --format json":
        "601c8d530cbee2fdf7635291935983e22ac40705f5f4f3a3ce28f7abbe22cd7c",
    "sums -n 20000 --format csv":
        "250f26ff9166c0202761e260b9e9780b3bd9854e65b33ac4ffe9093888f17c0a",
    "abs-sums -n 20000 --format json":
        "9a93aeb7c76ea06d98f98ebfac19e5e16e44a41b60c3633671b4f6176e81d670",
    "abs-sums -n 20000 --format csv":
        "b1386dfd788d080c085d0927aa60e58e5741d676d642685cb369b44d78928381",
    "ratio-sums -n 20000 --denom index --format json":
        "a382789b45d82e1133772524bbbdf1360e9e78ffa4b762cd5c83c9f598ad59fb",
    "ratio-sums -n 20000 --denom index --format csv":
        "fcacf38e05b2ea56b5c90e7bb2f3807cb8cf52e4c3c35cb862117014c94ec427",
    "ratio-sums -n 20000 --denom index --format svg":
        "223671cca9721c4cf3dd487c18d5580b584812bfd69d3aba4b498c21137c1f7d",
    "ratio-sums -n 20000 --denom value --format json":
        "63d2aa73ae8eb9920dbe0e649bc1cfa3acdfa70637d2f935382c35d451e4c35b",
    "ratio-sums -n 20000 --denom value --format csv":
        "0b0ee1575356d5d458f43965f1873cc2e0c8f552046a4bb79c51ad608ed3458b",
    "ratio-sums -n 20000 --denom value --format svg":
        "76f78fb6b3b02c8aeb4c60b2485a5bf76cab95956a32d55367c5128f4569c141",
}


@pytest.mark.parametrize("command", LARGE)
def test_large_stdout_digest(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGE[command]


def test_every_digest_has_a_case():
    assert set(GOLDEN) == {" ".join(argv) for argv in CASES}
