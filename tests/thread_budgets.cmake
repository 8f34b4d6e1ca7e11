# Per-test thread budgets, read by ctest after gtest_discover_tests has
# listed the unit tests (see the root CMakeLists.txt). A test that pins n
# OpenMP threads reserves n ctest slots (PROCESSORS, capped at the host's
# logical cores), so `ctest -jN` never runs more sweep threads than cores.
# Tests that leave the OpenMP default alone keep one slot.
#
# Regex on the discovered name, then the thread count the test pins; the
# first match wins. "cores" is the test running at the OpenMP default or
# above the hardware count.
set(_unsnap_thread_budgets
  # test_invariance.cpp: thread ladders and base_input()'s 4 threads.
  "^ThreadInvariance\\."                                        12
  "^TwistedLagInvariance\\."                                    8
  "(SchemeInvariance|SolverInvariance)\\."                      4
  "^(RenumberingInvariance\\.ShuffleSeed|QuadratureInvariance\\.)" 4
  "^AnisotropicScattering\\.SchemeInvarianceHoldsWithMoments$"   4
  "^Keff\\.KHistoryBitwiseInvariantAcrossThreadCounts$"          4
  "^TransportGmres\\.BitwiseInvariantAcrossConcurrencySchemes$"  3
  # Shipped decks leave threads at the OpenMP default; the sweeper test
  # raises the count past the hardware.
  "^PreassemblyDecks\\.AngleBatchSchemeAgreesToo$"               cores
  "^Sweeper\\.SurvivesThreadCountRaisedAfterConstruction$"       cores
  # Suites whose input helpers pin 2 threads.
  "^(TransportSolver|Balance|Reflective|Sweeper|TimeDependent|TwistedSolve|AnisotropicScattering|TwistedMms|MmsConvergence|Preassembly)\\." 2
  "(PolynomialExactness|PolynomialExactnessNegative|PreassemblyMode)\\." 2
  "^Keff\\.(KHistoryMatchesUnderPreassembly|BalanceLedgerClosesAndBucketsSum|ExtrapolationReachesTheSameEigenvalue)$" 2
)

cmake_host_system_information(RESULT _unsnap_cores
                              QUERY NUMBER_OF_LOGICAL_CORES)
foreach(_test IN LISTS unsnap_tests_TESTS)
  set(_rest ${_unsnap_thread_budgets})
  while(_rest)
    list(POP_FRONT _rest _regex _threads)
    if(_test MATCHES "${_regex}")
      if(_threads STREQUAL "cores" OR _threads GREATER _unsnap_cores)
        set(_threads ${_unsnap_cores})
      endif()
      set_tests_properties("${_test}" PROPERTIES PROCESSORS ${_threads})
      break()
    endif()
  endwhile()
endforeach()
