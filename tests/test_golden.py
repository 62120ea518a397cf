"""Golden guard: fixed CLI calls must keep their exact output bytes.

Each case runs `cli.main` inside one shared working directory (later cases
read files that earlier ones wrote) and is checked against hashes recorded
from the code before any refactoring: the exit code, the sha256 of stdout,
and the sha256 of every file the call created or changed, `.meta.json`
sidecars included. Paths are relative, so no hash depends on where the
directory lives. A hash here may only change in a change that states which
output it alters and why.
"""

import contextlib
import hashlib
import io
import os

import pytest

from relpoly.cli import main

# (case id, argv); the cases run in this order
CASES = (
    ("generate-er", ["generate", "--gen", "er:40,0.15", "--gen-seed", "3", "--out", "er40.edges"]),
    ("generate-er-small", ["generate", "--gen", "er:12,0.3", "--gen-seed", "5", "--out", "er12.edges"]),
    ("generate-rgg", ["generate", "--gen", "rgg:30,0.3", "--gen-seed", "4", "--out", "rgg30.edges"]),
    ("generate-ba", ["generate", "--gen", "ba:25,2", "--gen-seed", "6"]),
    ("generate-lattice", ["generate", "--gen", "lattice:3x5", "--out", "lattice.edges"]),
    ("exact-node", ["exact", "--input", "er12.edges", "--grid", "21", "--coeffs-out", "exact-node.json",
                    "--out", "exact-node.csv"]),
    ("exact-link", ["exact", "--family", "cycle", "--n", "7", "--kind", "link", "--grid", "21",
                    "--coeffs-out", "exact-link.json", "--out", "exact-link.csv"]),
    ("exact-node-gen", ["exact", "--gen", "ba:9,2", "--gen-seed", "2", "--ps", "0.1,0.25,0.5,0.9"]),
    *(
        (f"exact-link-{name}", ["exact", "--gen", spec, "--kind", "link", "--grid", "21",
                                "--coeffs-out", f"exact-link-{name}.json"])
        for name, spec in (("er", "er:12,0.35"), ("lattice", "lattice:4x4"))  # L = 24 each
    ),
    *(
        (f"closed-form-{family}", ["closed-form", "--family", family, "--n", "7", "--grid", "11",
                                   "--out", f"cf-{family}.csv"])
        for family in ("complete", "complete-pendant", "cycle", "path", "star", "star-pendant")
    ),
    *(
        (f"mc-{kind}-{size}-w{workers}", ["mc", "--input", graph, "--kind", kind, "--runs", "300",
                                          "--seed", "11", "--grid", "21", "--workers", str(workers),
                                          "--out", f"mc-{kind}-{size}-w{workers}.csv"])
        for kind, size, graph in (
            ("node", "small", "er12.edges"),  # N = 12 < 32: inline shuffle
            ("node", "large", "er40.edges"),  # N = 40 >= 32: numpy permutation
            ("link", "small", "lattice.edges"),  # L = 22 < 32
            ("link", "large", "er40.edges"),  # L >= 32
        )
        for workers in (1, 2)
    ),
    ("mc-family-stdout", ["mc", "--family", "star", "--n", "6", "--kind", "link", "--runs", "50",
                          "--seed", "2", "--grid", "6", "--workers", "1"]),
    *(
        (f"laplace-{source}-c", ["laplace", "--input", "er12.edges", "--source", source,
                                 "--runs", "400", "--seed", "5", "--workers", "1", "--grid", "21",
                                 "--out", f"laplace-{source}-c.csv"])
        for source in ("exact", "mc")
    ),
    ("approx-stochastic-node", ["approx", "stochastic", "--input", "rgg30.edges", "--kind", "node",
                                "--out", "stoch-node.csv"]),
    ("approx-stochastic-link", ["approx", "stochastic", "--input", "rgg30.edges", "--kind", "link",
                                "--out", "stoch-link.csv"]),
    ("approx-bounds-arith", ["approx", "bounds", "--input", "er40.edges", "--bound", "arith",
                             "--out", "arith.csv"]),
    ("approx-bounds-geom", ["approx", "bounds", "--input", "er40.edges", "--bound", "geom",
                            "--out", "geom.csv"]),
    ("approx-er", ["approx", "er", "--n", "1000", "--pl", "0.0069", "--grid", "51", "--out", "er.csv"]),
    ("approx-rgg", ["approx", "rgg", "--n", "100", "--r", "0.2", "--grid", "51", "--out", "rgg.csv"]),
    ("approx-er-intersection", ["approx", "er-intersection", "--n", "100", "--pl", "0.05",
                                "--n2", "10000", "--pl2", "0.0012"]),
    ("approx-er-intersection-json-out", ["approx", "er-intersection", "--n", "10000", "--pl", "0.05",
                                         "--n2", "100", "--pl2", "0.0012", "--out", "inter.json"]),
    ("approx-er-intersection-none", ["approx", "er-intersection", "--n", "100", "--pl", "0.1",
                                     "--n2", "10000", "--pl2", "0.0012"]),
    ("approx-er-width", ["approx", "er-width", "--n", "1000", "--pl", "0.02", "--lo", "0.05",
                         "--hi", "0.95"]),
    ("cutsets-exact-node", ["cutsets", "--input", "er12.edges", "--kind", "node"]),
    ("cutsets-exact-link", ["cutsets", "--family", "cycle", "--n", "6", "--kind", "link",
                            "--out", "cut-link.json"]),
    ("cutsets-exact-link-ba", ["cutsets", "--gen", "ba:9,2", "--kind", "link"]),  # L = 15
    ("cutsets-mc-node", ["cutsets", "--family", "path", "--n", "6", "--source", "mc", "--runs", "500",
                         "--seed", "3", "--workers", "1"]),
    ("cutsets-mc-link", ["cutsets", "--family", "star", "--n", "5", "--kind", "link", "--source", "mc",
                         "--runs", "500", "--seed", "4", "--workers", "2", "--no-round"]),
    *(
        (f"kgrip-{strategy}", ["kgrip", "--input", "er40.edges", "--k", "6", "--strategy", strategy,
                               "--seed", "9", "--p", "0.4", "--graph-out", f"kgrip-{strategy}.edges",
                               "--out", f"kgrip-{strategy}.json"])
        for strategy in ("lowest", "highest", "random")
    ),
    ("compare-power-p", ["compare", "stoch-node.csv", "stoch-link.csv", "--power", "p"]),
    ("compare-power-2", ["compare", "arith.csv", "geom.csv", "stoch-node.csv", "--power", "2",
                         "--out", "compare.csv"]),
    ("compare-plain", ["compare", "exact-node.csv", "mc-node-small-w2.csv", "laplace-exact-c.csv"]),
    ("exit-2-no-source", ["exact", "--grid", "11"]),
    ("exit-1-capacity", ["exact", "--gen", "er:30,0.5", "--out", "never.csv"]),
)

EXPECTED = {
    'generate-er': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'er40.edges': '8eb64edca9f1bd3e39a6b2aba4ed7377dfa6d11726da366352db9e018c968fd1',
    }),
    'generate-er-small': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'er12.edges': '070c0c538718cb465b168602935a4e1bd8a5af10e33012b3e36c4a0263e0ab7e',
    }),
    'generate-rgg': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'rgg30.edges': 'ef3b04d12915a594a1180c2db0bbd3c31119f38ec24ded83298e12cc64bb695a',
    }),
    'generate-ba': (0, 'f6587ce655f75abd49f9aaccf7bef821688e4da957e556d66ed9c51366b57564', {}),
    'generate-lattice': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'lattice.edges': '2b3a9069d5bec609a74b7d33a7b883709f6e358d62251225f1175e12fad59c3b',
    }),
    'exact-node': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'exact-node.csv': '6d6fd9670d8c97fc58455454ee6e16fd012f94371b8e71bc88d52ac6e4b49a11',
        'exact-node.csv.meta.json': 'f093a8d50c1d13b84479d7464d4d1aacd7bf3734ebeb94e16c9556ad4517307c',
        'exact-node.json': 'c390015324d53354067e34a9c85bc751380ddf6f0406cff77dac5f1ed056a539',
    }),
    'exact-link': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'exact-link.csv': 'de068dc67e7aee43945e301c89131acdb31700000d68284a91894cc8f318a6ac',
        'exact-link.csv.meta.json': 'cb5b41c177152645e07c95548babddaa4b38a06f36f740e82bf8a6c2731509da',
        'exact-link.json': 'db4c31d0dcd0a674a0b88220097527e63a13216bbafc3d6542f593afabbb2c8d',
    }),
    'exact-node-gen': (0, '8326a1d71d57c28adb99a3b14279246d1bc041d22f9d0e09872487b8cc00c139', {}),
    'exact-link-er': (0, '1ef90189d918bcb4bc0cba7f7ff3f0469231f91e545444f429a610afdefbba2c', {
        'exact-link-er.json': '9f5449bed0141d9698474cdc3cad1d913203a5b7469f849c0fc7ea302d803f70',
    }),
    'exact-link-lattice': (0, 'aa872b4ca0ff2c33cdf0b3366a1012c922097f246adb81a95b140782392f6d58', {
        'exact-link-lattice.json': 'e9b8641b3e2a501d29c5597f41fe8d8972ecce194a201d8963cec7cd0c9c842a',
    }),
    'closed-form-complete': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cf-complete.csv': '003c204227003cb22211c48d8f7f6195f83ce2a258b6b3da4589a2a1d046af99',
        'cf-complete.csv.meta.json': '471c6f0de36e13a9acd0987f7fc0fa199c5188fc0140eedca6d211615b6652b2',
    }),
    'closed-form-complete-pendant': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cf-complete-pendant.csv': '164742c0ced9c0857b1829763ab143e904c6c52f0cca7b073c2651278c197af0',
        'cf-complete-pendant.csv.meta.json': '5a0acd7c2ca3b65fbd551ce89682c732267697e3f5e3111a9dc17a055beb98fd',
    }),
    'closed-form-cycle': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cf-cycle.csv': '555e8cff2e31d52d0a1785135dd05c4d122173446dc4818639038f5834927912',
        'cf-cycle.csv.meta.json': '1e026c0110cd64b2f5058ce28cc5e6cb4d571794bbb87db84f7b4af6ddd210e8',
    }),
    'closed-form-path': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cf-path.csv': 'c56b294406aea7b02ddd61830411a76e8be9c69de4483be8d58d52d1d24906c8',
        'cf-path.csv.meta.json': 'c252acd7244995b70cc83d16a30bf8de960dc4c8401ccba26ffcfa941e68389a',
    }),
    'closed-form-star': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cf-star.csv': '24081f9075be40e6c1f301151630d0f33e2494b3d66510fbf14c25807214ca5c',
        'cf-star.csv.meta.json': '18d82d009cd0e1a6a05e3a88fca105f28ba907f450870d849139feff25b9dee7',
    }),
    'closed-form-star-pendant': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cf-star-pendant.csv': '4fbd897020b7229ffd99db2ee0fe338e3f3a3360d3773f6d85bdbdfcd66aebee',
        'cf-star-pendant.csv.meta.json': '459c9664c98b73f009780a08e5049aa341c4cbc8788e575358a8fddca3420a82',
    }),
    'mc-node-small-w1': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-node-small-w1.csv': '39eee1748db163cf586022fc6da7c38dc297384af67d59457b239343d6d3eeea',
        'mc-node-small-w1.csv.meta.json': 'ffe64db446330bc837ddc7004d12c4a57b61bd2f985a1a6d512a2e429e7a926b',
    }),
    'mc-node-small-w2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-node-small-w2.csv': '39eee1748db163cf586022fc6da7c38dc297384af67d59457b239343d6d3eeea',
        'mc-node-small-w2.csv.meta.json': 'ffe64db446330bc837ddc7004d12c4a57b61bd2f985a1a6d512a2e429e7a926b',
    }),
    'mc-node-large-w1': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-node-large-w1.csv': '3d305bd7a8ac46e96ac1eafc9c383a600819e569f481a677be540d5f24637171',
        'mc-node-large-w1.csv.meta.json': 'a53100fd31e284417026c3281f0f1d96c6f8f557ddb3ec5d83db44383f081106',
    }),
    'mc-node-large-w2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-node-large-w2.csv': '3d305bd7a8ac46e96ac1eafc9c383a600819e569f481a677be540d5f24637171',
        'mc-node-large-w2.csv.meta.json': 'a53100fd31e284417026c3281f0f1d96c6f8f557ddb3ec5d83db44383f081106',
    }),
    'mc-link-small-w1': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-link-small-w1.csv': 'e2e8c28fc0cbc270149745dc586af28c445ac425ef5dfbf74b0655ee2bd91c7d',
        'mc-link-small-w1.csv.meta.json': '749a0ebb0d0bfabbb9a89ed0f2e5d1b6c9edb4feb4af63ff9fab51363420a54f',
    }),
    'mc-link-small-w2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-link-small-w2.csv': 'e2e8c28fc0cbc270149745dc586af28c445ac425ef5dfbf74b0655ee2bd91c7d',
        'mc-link-small-w2.csv.meta.json': '749a0ebb0d0bfabbb9a89ed0f2e5d1b6c9edb4feb4af63ff9fab51363420a54f',
    }),
    'mc-link-large-w1': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-link-large-w1.csv': 'fae76e7aab326b206714517a90270490e3d8910242c1048dfbcf85a39737e9cb',
        'mc-link-large-w1.csv.meta.json': 'cc80625c5126b2a0e0f590d8ba969e4605bb52f833de5334854ee707ffeff617',
    }),
    'mc-link-large-w2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'mc-link-large-w2.csv': 'fae76e7aab326b206714517a90270490e3d8910242c1048dfbcf85a39737e9cb',
        'mc-link-large-w2.csv.meta.json': 'cc80625c5126b2a0e0f590d8ba969e4605bb52f833de5334854ee707ffeff617',
    }),
    'mc-family-stdout': (0, 'adde5d0beb77919f71d5db0fcf1f5ea5eaebd18f7a76aab7ac201124fd346672', {}),
    'laplace-exact-c': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'laplace-exact-c.csv': '6a048ecdf60b9d5a36733e7a39e7b8a44f348ff102f1d1086dc430ccd93fc569',
        'laplace-exact-c.csv.meta.json': '8a1a668f33e26ad48f5de1ad2685d0421b0a49335158611eae4fdea40f616358',
    }),
    'laplace-mc-c': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'laplace-mc-c.csv': 'b91826ad3d87a56bd3381d49d324c0ad48cdd2c7c5d17e729df3a4bc091539c7',
        'laplace-mc-c.csv.meta.json': '3600663c450da31d0ae38ef7d796c8bb2bc5e3b434bcb23f553290bc1bf516ae',
    }),
    'approx-stochastic-node': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'stoch-node.csv': 'ee3e071642433a39770d3cb7a4ba8211c8506cce0cba40a6dd466060b1a30be8',
        'stoch-node.csv.meta.json': '25170e76780258e0bace9b4183a4749b29de6a7969760d6b5b1b625883111a56',
    }),
    'approx-stochastic-link': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'stoch-link.csv': 'ea1f7199c0e6137bc9b9298aa4662b2fba719e943fc008b85318b2fe2cdc4990',
        'stoch-link.csv.meta.json': '0f7c9095a52ad8d416f9f8f12d30f26b214ac879bb9230db11638bfd2ccd502c',
    }),
    'approx-bounds-arith': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'arith.csv': '852a6cb06d310ceedf909c5db529e02aa67cdc9153964e32e4f1adf06be3d551',
        'arith.csv.meta.json': '9cb3c6d054250467ee2f1c4be49488673cfc2ee016e8fe421b802ed4973069cc',
    }),
    'approx-bounds-geom': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'geom.csv': '200bb9b677bf298530d2cf776a9ad31df9ba36824531c1255093d4f2a8028f34',
        'geom.csv.meta.json': '0fca19ee27a149bd1e4eb75db2111aed35d0717b0820558e0ab1cf43943d11a0',
    }),
    'approx-er': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'er.csv': '49e6c990ba1a6ebece3072340f15be6487b287107bad414de7127605abdc96cc',
        'er.csv.meta.json': 'ad0311f6f205672b11f6fd52f0e3038bc8a9c20b896a40f3778902cb2d46bae7',
    }),
    'approx-rgg': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'rgg.csv': '9a07ee7abce2b1b9e04bd87631e266e5436a83abd73aefaaa1d71f2a712bf5d1',
        'rgg.csv.meta.json': '1263c281404890737055c80defe56b3dc5021b2583f6a168432f09bbdefd2079',
    }),
    'approx-er-intersection': (0, '0b674e88d060dd0696340030dfa98625dda268f0932ccebe6aa5e9de0759cebc', {}),
    'approx-er-intersection-json-out': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'inter.json': '057ea7c5c444871381f3dc97950a3ed1c435a7cf59d896860b8dc55fdbcc4d17',
    }),
    'approx-er-intersection-none': (0, '3089de64cb64161c89ebfff67f40a3b47953e447f1e6a4eb20445c4735814c20', {}),
    'approx-er-width': (0, '25c3bb4b2a6ba8ba684fc2debc24fc96cb190ad27505239ba93eafc96559fa2e', {}),
    # cutsets reads its counts from the source: no probes or residual keys, and
    # Monte Carlo counts are C(n,j) R_j / runs without the solve's float noise
    'cutsets-exact-node': (0, '4206c035e1420d506f96db5dd25924ff2e711a8a694b16369077ba2fd5909678', {}),
    'cutsets-exact-link': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'cut-link.json': 'ff2eb352c5e73d7002d95998d669a45deac625879abec1404a4c65d6c2355935',
    }),
    'cutsets-exact-link-ba': (0, '0d64a50072cdbd26c7e267151d4721ad5692235ce6394d6080e4b781dbdf54d2', {}),
    'cutsets-mc-node': (0, '867f0dfcdfa24e696e8c95cd52eb6ae78d02028149fb626a407cf9db8f61a3ed', {}),
    'cutsets-mc-link': (0, '44de49b4036d153e17e6a0fdfaf32f8aec1cfa406200bf68da2329ca711848cf', {}),
    'kgrip-lowest': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'kgrip-lowest.edges': '7cf791fa0b3c0fb95d599cda9aff17eba1501a861b46ae0195a7864d26f14c00',
        'kgrip-lowest.json': '27dd9e1221786955a88447559cbc4038c7eb4909dbb9c416e2091ac10e42f7fb',
    }),
    'kgrip-highest': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'kgrip-highest.edges': '6fe06d40c0c71828d1af06af4fc28dbccf59944a6887d1fb68cc4fda73b6e9d5',
        'kgrip-highest.json': '1c6fddb0298310fc5bcda27475933c407ccc471f577dcd302b6fd579b7865abe',
    }),
    'kgrip-random': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'kgrip-random.edges': '6464a44866634c228bad7355714b8b27c7648d28f37478e566d9722d69af74b8',
        'kgrip-random.json': '9ed5c23cd18ae1d47b9ad4cadb6a0bb00546f2e063875cb95a638c050c364607',
    }),
    'compare-power-p': (0, 'd797ce4fd362e4c0005c6fd9a412019253794f8caf348a1fd3c9d087671aba7e', {}),
    'compare-power-2': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {
        'compare.csv': '774d095115e0587f3c4a38db0c5a03d065f0bcde21cdc4dbe217cdcd07d70fe2',
    }),
    'compare-plain': (0, 'f535558f584e41ecea51c0e57fdbc5602d3af39eb97147057c610f8cd40f6581', {}),
    'exit-2-no-source': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
    'exit-1-capacity': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root) -> dict:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = _sha(fh.read())
    return out


def run_matrix(root) -> dict:
    """Run every case in `root` (the working directory) and return
    {case id: (exit code, stdout sha256, {file: sha256 of files written})}."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.delenv("RELPOLY_THREADS", raising=False)
        before = _snapshot(root)
        for case, argv in CASES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            after = _snapshot(root)
            written = {k: v for k, v in after.items() if before.get(k) != v}
            results[case] = (code, _sha(stdout.getvalue().encode("utf-8")), written)
            before = after
    return results


@pytest.fixture(scope="module")
def golden_results(tmp_path_factory):
    return run_matrix(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", [case for case, _ in CASES])
def test_golden_output(golden_results, case):
    assert golden_results[case] == EXPECTED[case]
