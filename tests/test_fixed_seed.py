"""Fixed-seed outputs of every estimator, pinned at small sizes.

The values were recorded from commit 52ae181, before the private and plain
fits shared one M-step and one Lloyd loop. A change of formula, RNG draw
order or calibration moves them; a BLAS change in the last bits does not
(rtol 1e-12). The private outputs and traces were bit-identical after that
change; ``fit_em`` moved by rounding only, since it now divides by the
counts recovered from its weights. The factor-analysis release was pinned
from commit eeebc40, before every private path released through
``mechanisms.Release``. The six mixture entries (``run_dpem_mog`` and
``fit_em``) were re-recorded from the child of commit 4bea9f2, where
``mog.init_params`` stopped sampling rows and the data covariance and
started from means uniform in the unit ball, covariances I/d and uniform
weights: the seed, and so every value after it, moved on purpose.
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

EXPECTED = {('ggg', 'zcdp', 'map'): {'weights': [0.23806122629906734, 0.7619387737009327],
                          'means': [[-0.46408313187612943, 0.025885575771035008],
                                    [-0.22699376448822486, -0.1339262838134166]],
                          'covariances': [[[0.33066066931332877, 0.18220967554553424],
                                           [0.18220967554553424, 0.1004074569814489]],
                                          [[0.003812594544265335,
                                            -0.024436248244321543],
                                           [-0.024436248244321543,
                                            0.15666252874431755]]],
                          'sensitivity': [0.006666666666666667,
                                          np.float64(0.010455507538469673),
                                          np.float64(0.018064684237424133),
                                          np.float64(0.010086402922207532),
                                          np.float64(0.016990439971437864),
                                          0.006666666666666667,
                                          np.float64(0.027818543402661353),
                                          np.float64(0.00869166498001424),
                                          np.float64(0.025350312693853818),
                                          np.float64(0.008435063372789087)],
                          'noise_scale': [0.09287459530218646,
                                          np.float64(0.14565765469714959),
                                          np.float64(0.25166253567188296),
                                          np.float64(0.14051558841822231),
                                          np.float64(0.2366970354530076),
                                          0.09287459530218646,
                                          np.float64(0.38754539406277233),
                                          np.float64(0.12108523012815135),
                                          np.float64(0.35316000483383303),
                                          np.float64(0.11751046456441237)]},
 ('ggg', 'zcdp', 'mle'): {'weights': [0.22750480672784343, 0.7724951932721565],
                          'means': [[-0.4742579110316506, 0.046328874205741166],
                                    [-0.22968319741205645, -0.13859054083236963]],
                          'covariances': [[[0.3802985412432365, 0.20869704599481445],
                                           [0.20869704599481445, 0.11452831685978607]],
                                          [[0.003859366215932939,
                                            -0.02491958478064834],
                                           [-0.02491958478064834,
                                            0.16094624751838993]]],
                          'sensitivity': [0.006666666666666667,
                                          np.float64(0.010510453601903391),
                                          np.float64(0.018229337853514667),
                                          np.float64(0.010510453601903391),
                                          np.float64(0.018229337853514667),
                                          0.006666666666666667,
                                          np.float64(0.02930341016768838),
                                          np.float64(0.008630042911241706),
                                          np.float64(0.02930341016768838),
                                          np.float64(0.008630042911241706)],
                          'noise_scale': [0.09287459530218646,
                                          np.float64(0.1464231187078778),
                                          np.float64(0.25395635636580044),
                                          np.float64(0.1464231187078778),
                                          np.float64(0.25395635636580044),
                                          0.09287459530218646,
                                          np.float64(0.40823135404470506),
                                          np.float64(0.12022676142331147),
                                          np.float64(0.40823135404470506),
                                          np.float64(0.12022676142331147)]},
 ('llg', 'ma', 'map'): {'weights': [0.868061578782064, 0.13193842121793592],
                        'means': [[-0.43480437017004636, -0.2951202294996298],
                                  [0.00994670438422035, -0.5210910012273101]],
                        'covariances': [[[0.15494844011344328, -0.012562537661308784],
                                         [-0.012562537661308784,
                                          0.0010195218444154811]],
                                        [[0.054096537602797735, -0.19067769422979447],
                                         [-0.19067769422979447, 0.6721078814169733]]],
                        'sensitivity': [0.006666666666666667,
                                        np.float64(0.014854168179884995),
                                        np.float64(0.025347287818390123),
                                        np.float64(0.01013104368908679),
                                        np.float64(0.016865258866020815),
                                        0.006666666666666667,
                                        np.float64(0.010789157082713132),
                                        np.float64(0.07098502956525046),
                                        np.float64(0.007430673760865462),
                                        np.float64(0.042693623345017535)],
                        'noise_scale': [0.048134162033080505,
                                        np.float64(0.10724894070558193),
                                        np.float64(0.18301056884242767),
                                        np.float64(0.38759360026210343),
                                        np.float64(0.6452312914487687),
                                        0.048134162033080505,
                                        np.float64(0.0778990552829508),
                                        np.float64(0.5125207372525163),
                                        np.float64(0.2842828126829052),
                                        np.float64(1.6333731931641828)]},
 ('llg', 'ma', 'mle'): {'weights': [0.8808535883985799, 0.11914641160142009],
                        'means': [[-0.4326127220366106, -0.2995635633173543],
                                  [0.020448417746264574, -0.5306835977723503]],
                        'covariances': [[[0.15819472257031156, -0.013547609404927163],
                                         [-0.013547609404927163,
                                          0.0011612086202054878]],
                                        [[0.0704779583426513, -0.247669958642603],
                                         [-0.247669958642603, 0.870362176993455]]],
                        'sensitivity': [0.006666666666666667,
                                        np.float64(0.014932590284348774),
                                        np.float64(0.025576494632724912),
                                        np.float64(0.010558935850743374),
                                        np.float64(0.01808531279378112),
                                        0.006666666666666667,
                                        np.float64(0.010703356993710163),
                                        np.float64(0.07913029262988112),
                                        np.float64(0.007568416311712916),
                                        np.float64(0.05595356651586482)],
                        'noise_scale': [0.048134162033080505,
                                        np.float64(0.10781515804806713),
                                        np.float64(0.1846654705334692),
                                        np.float64(0.4039639041074083),
                                        np.float64(0.6919081303695139),
                                        0.048134162033080505,
                                        np.float64(0.07727956797497255),
                                        np.float64(0.5713305490757661),
                                        np.float64(0.2895525689716635),
                                        np.float64(2.140672270197663)]},
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
 ('fit_em', 'mle'): {'weights': [0.6401241488273991, 0.35987585117260085],
                     'means': [[-0.24274854423846368, -0.3430218985531788],
                               [-0.15621671757416855, -0.10142381441130961]],
                     'covariances': [[[0.03417210535307921, 0.020877551392981],
                                      [0.020877551392981, 0.09191402826237308]],
                                     [[0.03498297712826632, 0.03324568935323504],
                                      [0.03324568935323504, 0.11970368456351423]]]},
 ('fit_em', 'map'): {'weights': [0.6381471377322483, 0.36185286226775176],
                     'means': [[-0.24355258489346937, -0.34671771268281587],
                               [-0.15139874210105933, -0.09153940310782217]],
                     'covariances': [[[0.033639537074714385, 0.01993500241471749],
                                      [0.01993500241471749, 0.08796483264345692]],
                                     [[0.03297987881724451, 0.030355247502021926],
                                      [0.030355247502021926, 0.11033157676382634]]]}}


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
