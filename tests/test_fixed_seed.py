"""Fixed-seed outputs of every estimator, pinned at small sizes.

The values were recorded from commit 52ae181, before the private and plain
fits shared one M-step and one Lloyd loop. A change of formula, RNG draw
order or calibration moves them; a BLAS change in the last bits does not
(rtol 1e-12). The private outputs and traces were bit-identical after that
change; ``fit_em`` moved by rounding only, since it now divides by the
counts recovered from its weights. The factor-analysis release was pinned
from commit eeebc40, before every private path released through
``mechanisms.Release``.
"""
import numpy as np
import pytest

from dpem.accountant import PrivacyBudget
from dpem.data import preprocess
from dpem.dataio import synth_mog
from dpem.dpem_mog import DpEmConfig, run_dpem_mog
from dpem.fa import perturb_second_moment, second_moment
from dpem.kmeans import dplloyd, dpem_kmeans
from dpem.mog import fit_em

RTOL = 1e-12

EXPECTED = {('ggg', 'zcdp', 'map'): {'weights': [0.7346475697001009, 0.2653524302998991],
                          'means': [[-0.34305834297709203, -0.45784047320387333],
                                    [0.11149054267093186, 0.5614072228423044]],
                          'covariances': [[[0.046637049187457875, 0.0406175696774238],
                                           [0.0406175696774238, 0.035376787512979645]],
                                          [[0.18482141870484511, 0.09260483751626358],
                                           [0.09260483751626358,
                                            0.046400937796422535]]],
                          'sensitivity': [0.006666666666666667,
                                          0.010188114587916564,
                                          0.018922760484338306,
                                          0.009837331090552194,
                                          0.017747358907886004,
                                          0.006666666666666667,
                                          0.009014549056488196,
                                          0.024957436978461735,
                                          0.008738830887429393,
                                          0.022952511473381548],
                          'noise_scale': [0.09287459530218646,
                                          0.14193255288675796,
                                          0.2636165582974689,
                                          0.13704572158329772,
                                          0.24724181643788495,
                                          0.09287459530218646,
                                          0.1255833893179572,
                                          0.34768677887316857,
                                          0.12174230731263777,
                                          0.31975578213886535]},
 ('ggg', 'zcdp', 'mle'): {'weights': [0.7362118868314349, 0.26378811316856504],
                          'means': [[-0.34461160207325425, -0.45991342928890455],
                                    [0.11289938228001217, 0.5685013916696864]],
                          'covariances': [[[0.047353162025590805, 0.04114681330878746],
                                           [0.04114681330878746, 0.03575565560692283]],
                                          [[0.20191481019425514, 0.10032262333262913],
                                           [0.10032262333262913, 0.0498471632845109]]],
                          'sensitivity': [0.006666666666666667,
                                          0.010240279156646648,
                                          0.019103506018740175,
                                          0.010240279156646648,
                                          0.019103506018740175,
                                          0.006666666666666667,
                                          0.00905536406829721,
                                          0.025272809250531145,
                                          0.00905536406829721,
                                          0.025272809250531145],
                          'noise_scale': [0.09287459530218646,
                                          0.1426592673682459,
                                          0.26613455855150653,
                                          0.1426592673682459,
                                          0.26613455855150653,
                                          0.09287459530218646,
                                          0.1261519909735596,
                                          0.3520802896938651,
                                          0.1261519909735596,
                                          0.3520802896938651]},
 ('llg', 'ma', 'map'): {'weights': [0.7434383698852493, 0.25656163011475075],
                        'means': [[-0.1486390652425296, -0.40729188960179535],
                                  [-0.18193479119488626, 0.16725223377197984]],
                        'covariances': [[[0.26856991381614953, 0.22107017284203112],
                                         [0.22107017284203112, 0.1819729960362246]],
                                        [[0.5878135283707471, 0.5222624479789979],
                                         [0.5222624479789979, 0.46402320334606506]]],
                        'sensitivity': [0.006666666666666667,
                                        0.013007647465635064,
                                        0.033450105748213096,
                                        0.00891093245260707,
                                        0.021844411618505137,
                                        0.006666666666666667,
                                        0.012597752699249638,
                                        0.036504494950233723,
                                        0.008638622702164853,
                                        0.02367379061167069],
                        'noise_scale': [0.048134162033080505,
                                        0.09391683161701006,
                                        0.241513921516225,
                                        0.34091456882363086,
                                        0.8357237817406865,
                                        0.048134162033080505,
                                        0.0909573404517539,
                                        0.26356699123054783,
                                        0.3304965388753376,
                                        0.905712186880889]},
 ('llg', 'ma', 'mle'): {'weights': [0.7450612923511509, 0.25493870764884907],
                        'means': [[-0.14930406227820286, -0.4091140747642022],
                                  [-0.18431359553407778, 0.1694390631124443]],
                        'covariances': [[[0.2776995367906132, 0.22842436970920738],
                                         [0.22842436970920738, 0.18789429349758524]],
                                        [[0.6485132089489722, 0.5762439987370517],
                                         [0.5762439987370517, 0.5120301360722785]]],
                        'sensitivity': [0.006666666666666667,
                                        0.01306774468878622,
                                        0.033850434468972235,
                                        0.009240290884255226,
                                        0.023935871759121114,
                                        0.006666666666666667,
                                        0.012654113846216468,
                                        0.03698179261505799,
                                        0.00894780971056625,
                                        0.026150076338542085],
                        'noise_scale': [0.048134162033080505,
                                        0.09435074103854446,
                                        0.24440434464295244,
                                        0.353515167954074,
                                        0.9157388908038577,
                                        0.048134162033080505,
                                        0.09136427493882465,
                                        0.2670131397010472,
                                        0.34232541943476674,
                                        1.0004499581916215]},
 ('dplloyd', 'linear'): {'centers': [[-0.22992451227319463, -0.4217749281185012],
                                     [-2.8217735491493636, 1.261754557537199],
                                     [-0.06319179744874434, 0.1138280317870482]],
                         'noise_scale': [9.0, 9.0, 9.0]},
 ('dplloyd', 'zcdp'): {'centers': [[-0.16686593818426945, -0.3712962767098248],
                                   [-2.8217735491493636, 1.2617545575371987],
                                   [-0.06264222242588206, 0.036891922347425235]],
                       'noise_scale': [22.89129748259012,
                                       22.89129748259012,
                                       22.89129748259012]},
 ('dpem_kmeans',): {'centers': [[-0.21359877429713436, -0.41181994324358173],
                                [-3.990590423152694, 1.7843904076551704],
                                [-0.048784803877589454, 0.09070015889931377]],
                    'noise_scale': [10.791058352209108,
                                    0.09843927625035366,
                                    0.7007165144184906,
                                    0.15290091807898273,
                                    10.791058352209108,
                                    0.13567949658483358,
                                    15.260861074053585,
                                    0.10105304735153196,
                                    10.791058352209108,
                                    0.06461115075702877,
                                    3.049467619517334,
                                    0.14836093386810836]},
 ('fa',): {'moment': [[0.08824835530112794, 0.07668152228485155],
                      [0.07668152228485155, 0.21802637371829214]],
           'noise_scale': [0.05791483071865028]},
 ('fit_em', 'mle'): {'weights': [0.6165192585788966, 0.38348074142110344],
                     'means': [[-0.22955128501741898, -0.4360966265129594],
                               [-0.18276026368270057, 0.03334036128696755]],
                     'covariances': [[[0.030221712294066668, 0.016431609471116635],
                                      [0.016431609471116635, 0.05558135233701847]],
                                     [[0.04443233473910509, 0.03864861504351689],
                                      [0.03864861504351689, 0.07560578680651985]]]},
 ('fit_em', 'map'): {'weights': [0.6148039092037475, 0.3851960907962525],
                     'means': [[-0.23145859731986104, -0.43828276492868035],
                               [-0.1762863234635333, 0.03914174260999215]],
                     'covariances': [[[0.029683153900975846, 0.01553412622306004],
                                      [0.01553412622306004, 0.05276726774711662]],
                                     [[0.04223519016640218, 0.03465665533369881],
                                      [0.03465665533369881, 0.06867921772971645]]]}}


@pytest.fixture(scope="module")
def data():
    raw, _ = synth_mog(300, 2, 2, separation=4.0, seed=5)
    return preprocess(raw)


def check(expected: dict, **actual):
    for key, value in actual.items():
        np.testing.assert_allclose(value, expected[key], rtol=RTOL, atol=0,
                                   err_msg=key)


@pytest.mark.parametrize("scenario,method", [("ggg", "zcdp"), ("llg", "ma")])
@pytest.mark.parametrize("estimator", ["map", "mle"])
def test_run_dpem_mog_pinned(data, scenario, method, estimator):
    cfg = DpEmConfig(components=2, iterations=2, total=PrivacyBudget(1.0, 1e-4),
                     scenario=scenario, method=method, estimator=estimator, seed=0)
    params, trace = run_dpem_mog(data, cfg)
    check(EXPECTED[(scenario, method, estimator)], weights=params.weights,
          means=params.means, covariances=params.covariances,
          sensitivity=[r.sensitivity for r in trace],
          noise_scale=[r.noise_scale for r in trace])


@pytest.mark.parametrize("composition", ["linear", "zcdp"])
def test_dplloyd_pinned(data, composition):
    clustering, trace = dplloyd(data, 3, 3, 1.0, composition=composition,
                                delta=1e-4, rng=np.random.default_rng(0))
    check(EXPECTED[("dplloyd", composition)], centers=clustering.centers,
          noise_scale=[r.noise_scale for r in trace])


def test_dpem_kmeans_pinned(data):
    clustering, trace = dpem_kmeans(data, 3, 3, PrivacyBudget(1.0, 1e-4),
                                    np.random.default_rng(0))
    check(EXPECTED[("dpem_kmeans",)], centers=clustering.centers,
          noise_scale=[r.noise_scale for r in trace])


def test_perturb_second_moment_pinned(data):
    noised, trace = perturb_second_moment(second_moment(data),
                                          PrivacyBudget(0.5, 1e-4),
                                          np.random.default_rng(0))
    check(EXPECTED[("fa",)], moment=noised.matrix,
          noise_scale=[r.noise_scale for r in trace])


@pytest.mark.parametrize("estimator", ["mle", "map"])
def test_fit_em_pinned(data, estimator):
    params = fit_em(data, 2, 3, estimator=estimator, seed=0)
    check(EXPECTED[("fit_em", estimator)], weights=params.weights,
          means=params.means, covariances=params.covariances)
