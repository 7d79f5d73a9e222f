int main(void) { return 42; }
