// Experiment E9 (ablation) — google-benchmark microbenchmarks of the hot
// primitives underneath the tracing scheme: digests, AES, RSA, Montgomery
// exponentiation, topic matching, constrained-topic parsing and
// subscription-table lookup.
#include <benchmark/benchmark.h>

#include "src/common/topic_path.h"
#include "src/common/uuid.h"
#include "src/crypto/aes.h"
#include "src/crypto/bigint.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/pubsub/constrained_topic.h"
#include "src/pubsub/subscription.h"

namespace et {
namespace {

void BM_Sha1(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(512)->Arg(4096);

void BM_Sha256(benchmark::State& state) {
  Rng rng(2);
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(512)->Arg(4096);

void BM_AesCbcEncrypt(benchmark::State& state) {
  Rng rng(4);
  const crypto::Aes cipher(rng.next_bytes(24));
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_cbc_encrypt(cipher, data, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(64)->Arg(512)->Arg(4096);

void BM_AesCbcDecrypt(benchmark::State& state) {
  Rng rng(5);
  const crypto::Aes cipher(rng.next_bytes(24));
  const Bytes ct = crypto::aes_cbc_encrypt(
      cipher, rng.next_bytes(static_cast<std::size_t>(state.range(0))), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_cbc_decrypt(cipher, ct));
  }
}
BENCHMARK(BM_AesCbcDecrypt)->Arg(512);

void BM_RsaSign(benchmark::State& state) {
  Rng rng(6);
  const crypto::RsaKeyPair kp =
      crypto::rsa_generate(rng, static_cast<std::size_t>(state.range(0)));
  const Bytes msg = rng.next_bytes(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.private_key.sign(msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_RsaVerify(benchmark::State& state) {
  Rng rng(7);
  const crypto::RsaKeyPair kp =
      crypto::rsa_generate(rng, static_cast<std::size_t>(state.range(0)));
  const Bytes msg = rng.next_bytes(512);
  const Bytes sig = kp.private_key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.verify(msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(1024);

void BM_RsaEncrypt(benchmark::State& state) {
  Rng rng(8);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 1024);
  const Bytes msg = rng.next_bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.encrypt(msg, rng));
  }
}
BENCHMARK(BM_RsaEncrypt);

void BM_MontgomeryModExp(benchmark::State& state) {
  Rng rng(9);
  const crypto::BigInt n =
      crypto::BigInt::generate_prime(rng, static_cast<std::size_t>(state.range(0)), 16);
  const crypto::BigInt base = crypto::BigInt::random_below(rng, n);
  const crypto::BigInt exp = crypto::BigInt::random_bits(
      rng, static_cast<std::size_t>(state.range(0)));
  const crypto::Montgomery64 mont(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(base, exp));
  }
}
BENCHMARK(BM_MontgomeryModExp)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_TopicMatch(benchmark::State& state) {
  const std::string pattern =
      "Constrained/Traces/Broker/Publish-Only/"
      "9f2c1d34-aaaa-4bbb-8ccc-123456789abc/AllUpdates";
  const std::string topic = pattern;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topic_matches(pattern, topic));
  }
}
BENCHMARK(BM_TopicMatch);

void BM_TopicMatchWildcard(benchmark::State& state) {
  const std::string pattern = "Constrained/Traces/#";
  const std::string topic =
      "Constrained/Traces/Broker/Publish-Only/uuid/AllUpdates";
  for (auto _ : state) {
    benchmark::DoNotOptimize(topic_matches(pattern, topic));
  }
}
BENCHMARK(BM_TopicMatchWildcard);

void BM_ConstrainedParse(benchmark::State& state) {
  const std::string topic =
      "/Constrained/Traces/Broker/Subscribe-Only/Limited/"
      "9f2c1d34-aaaa-4bbb-8ccc-123456789abc/session";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pubsub::ConstrainedTopic::parse(topic));
  }
}
BENCHMARK(BM_ConstrainedParse);

void BM_SubscriptionMatch(benchmark::State& state) {
  pubsub::SubscriptionTable table;
  Rng rng(10);
  for (int i = 0; i < state.range(0); ++i) {
    table.add("Constrained/Traces/Broker/Publish-Only/" +
                  Uuid::generate(rng).to_string() + "/AllUpdates",
              static_cast<transport::NodeId>(i));
  }
  Rng probe_rng(10);
  const TopicPath hit("Constrained/Traces/Broker/Publish-Only/" +
                      Uuid::generate(probe_rng).to_string() + "/AllUpdates");
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.match(hit));
  }
}
BENCHMARK(BM_SubscriptionMatch)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace
}  // namespace et

BENCHMARK_MAIN();
