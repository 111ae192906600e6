// Golden run digests: every (protocol, regime) preset of the property
// matrix, seeds 1-3, with the online monitor stopping early and watching
// to the full horizon, plus the time-bounded runner with default options.
// Each digest covers the whole trace, the run stats, the online verdicts
// and every participant's outcome, so any change to how a run is wired
// (id prediction, spawn order, clock RNG, funding, stop rule, extraction)
// shows up as a changed digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "proto/timebounded.hpp"
#include "record_digest.hpp"

namespace xcp {
namespace {

using exp::ProtocolKind;
using exp::Regime;

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kTimeBounded,    ProtocolKind::kUniversalNaive,
    ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
    ProtocolKind::kWeakContract,   ProtocolKind::kWeakCommittee};
constexpr Regime kRegimes[] = {Regime::kSynchronyConforming,
                               Regime::kSynchronyHighDrift,
                               Regime::kPartialSynchrony,
                               Regime::kPartialSynchronyAdversarial};

// Indexed [protocol][regime][seed - 1], in kProtocols/kRegimes order.
constexpr std::uint64_t kEarlyStop[6][4][3] = {
    {
     {0xe2e4c0d68b455830ull, 0xd447cfaa2eaafae6ull, 0xf682bc162ff11058ull},
     {0x48a503ae29b34a21ull, 0x8b43df930a9ed34full, 0x6c584a9e63369ab5ull},
     {0xf7c744f871992b53ull, 0xf42e3395d769215dull, 0x3a151885d1358e58ull},
     {0x4eceb855a9ddd51aull, 0xee4d7361fe2bd100ull, 0x1a23c823a50f4270ull}},
    {
     {0xb6b4f12d17b88cb7ull, 0x447b5de92f343eadull, 0xededa239a4b2767bull},
     {0x2a3a09fc4fd8973aull, 0x81c9b522dbc687f8ull, 0x534fd9bffa124423ull},
     {0xf1d7b01bbba84a6aull, 0x97ce1dbc75527003ull, 0x4f1be4ce3d3aec59ull},
     {0xd154e742fe36940aull, 0x7b57eec90552ef10ull, 0xebc7db249ea30d2cull}},
    {
     {0x16940e37cd3fdef9ull, 0x6d6856c1cec71408ull, 0x5cc9cb779dd2331full},
     {0x7f9608a6438c3b93ull, 0x6a06a14310c1f24bull, 0x020df77c07ede526ull},
     {0x6a98269b829adeb4ull, 0xda7ba54f2da6c4d7ull, 0xf357ad13ba78a3b8ull},
     {0x710c3b31ea1559f6ull, 0xc6d415b4b03f965eull, 0xaa0dcbfb474fbb40ull}},
    {
     {0xa9f1ab00f44f1d6cull, 0xb271818a3bba7cadull, 0xf8a435bd3c5f510aull},
     {0x7fb304da97c526a2ull, 0xef96c7308596282eull, 0x86ec0ddbb5c205a3ull},
     {0x49242ba81b9fb29cull, 0xbc7695256ba8f5a9ull, 0x97fbb050247b1f80ull},
     {0x86f198c602549de5ull, 0xd7925de4f934089aull, 0xc7b634e92c49f8d5ull}},
    {
     {0xf50a5fc3b30b04e4ull, 0xbea21551706cb55full, 0x7b6782581286430eull},
     {0x68965fa238ed8f57ull, 0x22f19e1badd7838dull, 0x2eb5e0200b1ed215ull},
     {0x47a9f3fee257587bull, 0xb9ded107102829b1ull, 0xf78ea8b65a8e87baull},
     {0xabc2f99ade74449cull, 0x49dbc2eaa5f99af0ull, 0x9053c6609890a132ull}},
    {
     {0x410fcfd5123f1466ull, 0xea046cd2b22afeeaull, 0xa8f215e46b473290ull},
     {0x91c234ddbd20901bull, 0x5fb0f57061057f9cull, 0x1cafec62b01aa2d8ull},
     {0x4b04a39a347ce669ull, 0xd7ec6ce6e980da4aull, 0x25ca016232d646d4ull},
     {0x7f85357427adeee4ull, 0x2d0dab4ccd666683ull, 0x278e366c2b1de36cull}}};
constexpr std::uint64_t kFullHorizon[6][4][3] = {
    {
     {0x6b0b61f735d41567ull, 0x06191c863050e071ull, 0x29e5405373d1c05full},
     {0xd0b89a438befd4eeull, 0x87e58b52862915e8ull, 0x977e228f85747b42ull},
     {0xf7c744f871992b53ull, 0xf42e3395d769215dull, 0x3a151885d1358e58ull},
     {0x4eceb855a9ddd51aull, 0xee4d7361fe2bd100ull, 0x1a23c823a50f4270ull}},
    {
     {0x6f45c5d86f5ff300ull, 0x354b62f4b6215322ull, 0xf6fc6ce2ce251014ull},
     {0x464a1810263b18edull, 0xb2fa18b87d54d05full, 0x534fd9bffa124423ull},
     {0xf1d7b01bbba84a6aull, 0x97ce1dbc75527003ull, 0x4f1be4ce3d3aec59ull},
     {0xd154e742fe36940aull, 0x7b57eec90552ef10ull, 0xebc7db249ea30d2cull}},
    {
     {0xcfdef309fc82e738ull, 0xdc189c9f6cb0bd37ull, 0x136de2f03c802959ull},
     {0xaca3441f333197f2ull, 0xf30d0ab6493edd29ull, 0x4a7dab034fc80d28ull},
     {0x85c95c039abc881cull, 0x855015ff02e150e9ull, 0xea11544bb7d94d34ull},
     {0xbbb63c83261a56cfull, 0x368a1bb6bb956e5eull, 0xa40966dd63f39500ull}},
    {
     {0x279c4318594d9a61ull, 0x7ddad0ddfbe3ab06ull, 0x4a7265cd5f99dca0ull},
     {0xa01a7a68f2fccfdfull, 0x0e9460bf00cc8d72ull, 0x1c79173d0b6b0b6aull},
     {0x9c3dc1b1312bd2b5ull, 0x49386783e612aac0ull, 0xa4ae9c2ba996d7bdull},
     {0x9bd3f3f8c86853ccull, 0x6b8ed2a3b2526170ull, 0x3e1e10d49ef23f04ull}},
    {
     {0x019b08e9eb9fc93cull, 0x6d057e4d0a86a1c9ull, 0xb4800f6cdf11eca9ull},
     {0x2267ba065fdb763full, 0xee392e2ecebfe2c3ull, 0x41bc6a4d25c1975cull},
     {0x1a568d0f90fa40f3ull, 0x872f8232bf55fd46ull, 0xc88408411732f204ull},
     {0xe97475fb28daa57full, 0x5f2a9b6232841603ull, 0xd841ddeb843374f9ull}},
    {
     {0x2d8e96ee9b3f9141ull, 0xa544480501def86full, 0xb9b15c91adcd5448ull},
     {0x5aa0c7ae29ffecfeull, 0xefa8d995896764cdull, 0xde86451bf7a10a70ull},
     {0x6166f9d44f8f4625ull, 0x95a0877001cf6126ull, 0x6aa399b2aac58748ull},
     {0xc122088bcc3636efull, 0x7788c182256a5a2aull, 0x2efec59c3b21a7f3ull}}};
constexpr std::uint64_t kTimeBoundedDefault[3] = {
    0x01ae1c73092e7183ull, 0x918249903f212103ull, 0xca49358ce374acb4ull};

void check_matrix(props::OnlineOptions online,
                  const std::uint64_t (&golden)[6][4][3]) {
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t g = 0; g < 4; ++g) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const proto::RunRecord r = exp::run_cell_seed(
            kProtocols[p], kRegimes[g], /*n=*/2, seed, online);
        EXPECT_EQ(record_digest(r), golden[p][g][seed - 1])
            << exp::protocol_kind_name(kProtocols[p]) << " / "
            << exp::regime_name(kRegimes[g]) << " seed " << seed;
      }
    }
  }
}

TEST(RunGoldens, MatrixPresetsWithEarlyStop) {
  check_matrix({/*enabled=*/true, /*early_stop=*/true}, kEarlyStop);
}

TEST(RunGoldens, MatrixPresetsToFullHorizon) {
  check_matrix({/*enabled=*/true, /*early_stop=*/false}, kFullHorizon);
}

TEST(RunGoldens, TimeBoundedDefaultOptions) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const proto::RunRecord r =
        proto::run_time_bounded(exp::thm1_config(/*n=*/2, seed));
    EXPECT_EQ(record_digest(r), kTimeBoundedDefault[seed - 1])
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace xcp
