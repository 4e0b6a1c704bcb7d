// Env wrapper for fsync-failure tests, shared by the storage and facade
// suites.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "storage/env.hpp"
#include "util/status.hpp"

namespace bp::testing_env {

// Env wrapper over a MemEnv whose files fail the first Sync issued
// after Arm() and succeed on every later one: the Linux failure mode
// where a retried fsync reports success after the kernel dropped the
// dirty pages the failed one could not write.
class FailFirstSyncEnv : public storage::Env {
 public:
  explicit FailFirstSyncEnv(storage::MemEnv* base) : base_(base) {}
  void Arm() { armed_ = true; }
  int syncs_failed() const { return syncs_failed_; }

  util::Result<std::unique_ptr<storage::File>> Open(
      const std::string& name) override {
    BP_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                        base_->Open(name));
    return std::unique_ptr<storage::File>(
        new FailingFile(this, std::move(file)));
  }
  util::Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }

 private:
  class FailingFile : public storage::File {
   public:
    FailingFile(FailFirstSyncEnv* env, std::unique_ptr<storage::File> base)
        : env_(env), base_(std::move(base)) {}
    util::Status Read(uint64_t offset, size_t n,
                      std::string* out) const override {
      return base_->Read(offset, n, out);
    }
    util::Status Write(uint64_t offset, std::string_view data) override {
      return base_->Write(offset, data);
    }
    util::Status Sync() override {
      if (env_->armed_) {
        env_->armed_ = false;
        ++env_->syncs_failed_;
        return util::Status::IoError("injected fsync failure");
      }
      return base_->Sync();
    }
    util::Status Truncate(uint64_t size) override {
      return base_->Truncate(size);
    }
    util::Result<uint64_t> Size() const override { return base_->Size(); }

   private:
    FailFirstSyncEnv* env_;
    std::unique_ptr<storage::File> base_;
  };

  storage::MemEnv* base_;
  bool armed_ = false;
  int syncs_failed_ = 0;
};

}  // namespace bp::testing_env
