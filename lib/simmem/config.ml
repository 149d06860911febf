let poison = 0x2DEADBEEF
