#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace nfvm::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("NFVM_TEST_VAR"); }
};

TEST_F(EnvTest, IntFallbackWhenUnset) {
  unsetenv("NFVM_TEST_VAR");
  EXPECT_EQ(env_int("NFVM_TEST_VAR", 42), 42);
}

TEST_F(EnvTest, IntParsesValue) {
  setenv("NFVM_TEST_VAR", "123", 1);
  EXPECT_EQ(env_int("NFVM_TEST_VAR", 42), 123);
}

TEST_F(EnvTest, IntParsesNegative) {
  setenv("NFVM_TEST_VAR", "-7", 1);
  EXPECT_EQ(env_int("NFVM_TEST_VAR", 42), -7);
}

TEST_F(EnvTest, IntFallbackOnGarbage) {
  setenv("NFVM_TEST_VAR", "12abc", 1);
  EXPECT_EQ(env_int("NFVM_TEST_VAR", 42), 42);
  setenv("NFVM_TEST_VAR", "", 1);
  EXPECT_EQ(env_int("NFVM_TEST_VAR", 42), 42);
}

}  // namespace
}  // namespace nfvm::util
